"""Core contribution: the blended scoring model and top-k query processing."""

from .accounting import AccessAccountant
from .query import Query, QueryResult, ScoredItem, make_queries
from .scoring import ScoreBreakdown, ScoringModel
from .plan import ExecutionPlan, PartitionPreview, QueryPlanner
from .partition_exec import PartitionedExecutor
from .engine import SocialSearchEngine
from .topk import (
    ExactBaseline,
    HybridMerge,
    NoRandomAccess,
    SocialFirst,
    ThresholdAlgorithm,
    TopKAlgorithm,
    TopKHeap,
    available_algorithms,
    create_algorithm,
    register_algorithm,
)

__all__ = [
    "AccessAccountant",
    "Query",
    "QueryResult",
    "ScoredItem",
    "make_queries",
    "ScoringModel",
    "ScoreBreakdown",
    "SocialSearchEngine",
    "ExecutionPlan",
    "PartitionPreview",
    "QueryPlanner",
    "PartitionedExecutor",
    "TopKAlgorithm",
    "TopKHeap",
    "ExactBaseline",
    "ThresholdAlgorithm",
    "NoRandomAccess",
    "SocialFirst",
    "HybridMerge",
    "available_algorithms",
    "create_algorithm",
    "register_algorithm",
]
