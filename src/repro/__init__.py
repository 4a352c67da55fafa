"""repro — social-aware top-k query processing.

Reproduction of the ICDE 2013 paper "With a little help from my friends"
(social/collaborative query technique).  See DESIGN.md for the paper-text
mismatch notice and the reconstruction scope.

Quickstart
----------

>>> from repro import SocialSearchEngine, delicious_like
>>> dataset = delicious_like(scale=0.2)
>>> engine = SocialSearchEngine(dataset)
>>> result = engine.search(seeker=4, tags=[dataset.tags()[0]], k=5)
>>> [item.item_id for item in result.items]
"""

from .config import (
    DatasetConfig,
    DurabilityConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    ServiceConfig,
    WorkloadConfig,
    default_engine_config,
)
from .errors import (
    ConfigurationError,
    EvaluationError,
    GraphError,
    InvalidQueryError,
    PersistenceError,
    QueryError,
    ReproError,
    ServiceError,
    StorageError,
    UnknownAlgorithmError,
    UnknownItemError,
    UnknownProximityError,
    UnknownTagError,
    UnknownUserError,
    WorkloadError,
)
from .graph import SocialGraph, SocialGraphBuilder, generate_graph
from .proximity import (
    CachedProximity,
    ProximityMeasure,
    available_proximities,
    create_proximity,
)
from .storage import (
    Dataset,
    DurableStore,
    InvertedIndex,
    Item,
    ItemStore,
    SocialIndex,
    TaggingAction,
    TaggingStore,
    User,
    UserStore,
    WriteAheadLog,
    compute_dataset_statistics,
)
from .core import (
    ExecutionPlan,
    Query,
    QueryPlanner,
    QueryResult,
    ScoredItem,
    ScoringModel,
    SocialSearchEngine,
    available_algorithms,
    create_algorithm,
)
# Importing the baselines registers them with the algorithm registry.
from . import baselines  # noqa: F401
from .baselines import GlobalTopK, MaterializedBaseline, RandomRank
from .workload import (
    build_dataset,
    delicious_like,
    flickr_like,
    generate_workload,
    scaled_dataset,
    tiny_dataset,
)
from .eval import ExperimentRunner, format_series, format_table
from .service import (
    QueryService,
    ResultCache,
    ServedResult,
    ServiceMetrics,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "ScoringConfig",
    "ProximityConfig",
    "EngineConfig",
    "ServiceConfig",
    "DatasetConfig",
    "DurabilityConfig",
    "WorkloadConfig",
    "default_engine_config",
    # errors
    "ReproError",
    "ConfigurationError",
    "GraphError",
    "UnknownUserError",
    "StorageError",
    "UnknownItemError",
    "UnknownTagError",
    "PersistenceError",
    "QueryError",
    "InvalidQueryError",
    "UnknownAlgorithmError",
    "UnknownProximityError",
    "WorkloadError",
    "EvaluationError",
    "ServiceError",
    # graph
    "SocialGraph",
    "SocialGraphBuilder",
    "generate_graph",
    # proximity
    "ProximityMeasure",
    "create_proximity",
    "available_proximities",
    "CachedProximity",
    # storage
    "Dataset",
    "Item",
    "ItemStore",
    "User",
    "UserStore",
    "TaggingAction",
    "TaggingStore",
    "InvertedIndex",
    "SocialIndex",
    "compute_dataset_statistics",
    "WriteAheadLog",
    "DurableStore",
    # core
    "Query",
    "QueryResult",
    "ScoredItem",
    "ScoringModel",
    "SocialSearchEngine",
    "ExecutionPlan",
    "QueryPlanner",
    "available_algorithms",
    "create_algorithm",
    # baselines
    "GlobalTopK",
    "MaterializedBaseline",
    "RandomRank",
    # workload
    "build_dataset",
    "delicious_like",
    "flickr_like",
    "tiny_dataset",
    "scaled_dataset",
    "generate_workload",
    # evaluation
    "ExperimentRunner",
    "format_table",
    "format_series",
    # service
    "QueryService",
    "ResultCache",
    "ServedResult",
    "ServiceMetrics",
]
