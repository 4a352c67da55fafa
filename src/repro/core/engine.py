"""The public facade: :class:`SocialSearchEngine`.

The engine binds a dataset to a proximity measure and a default top-k
algorithm, caches algorithm instances, and exposes the one-call API most
applications need:

>>> engine = SocialSearchEngine(dataset)
>>> result = engine.search(seeker=4, tags=["jazz", "vinyl"], k=10)

Every knob (α, algorithm, proximity measure, caching, early termination)
comes from an :class:`~repro.config.EngineConfig`, so experiments can be
described declaratively.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from ..config import EngineConfig
from ..obs import trace as obs_trace
from ..proximity import CachedProximity, MaterializedProximity, create_proximity
from ..proximity.base import ProximityMeasure
from ..storage.dataset import Dataset
from .plan import ExecutionPlan, QueryPlanner
from .query import Query, QueryResult
from .scoring import ScoringModel
from .topk.base import TopKAlgorithm, available_algorithms, create_algorithm


class SocialSearchEngine:
    """Social-aware top-k search over one dataset.

    Parameters
    ----------
    dataset:
        The corpus to query.
    config:
        Engine configuration; defaults to the social-first algorithm with
        shortest-path proximity and α = 0.5.
    proximity:
        Optional pre-built proximity measure.  When omitted, one is created
        from ``config.proximity`` and wrapped in an LRU cache if
        ``config.proximity.cache_size > 0``.
    """

    def __init__(self, dataset: Dataset, config: Optional[EngineConfig] = None,
                 proximity: Optional[ProximityMeasure] = None) -> None:
        self._dataset = dataset
        self._config = config or EngineConfig()
        if proximity is None:
            proximity = create_proximity(self._config.proximity.measure,
                                         dataset.graph, self._config.proximity)
            if self._config.proximity.materialize:
                # Shard-served proximity replaces the LRU cache: a shard row
                # lookup is already O(touch), and lazy refinements are
                # memoised in the shard overlay.
                proximity = MaterializedProximity(
                    proximity, cluster_rounds=self._config.proximity.cluster_rounds)
                if self._config.proximity.materialize_eager:
                    proximity.build()
            elif self._config.proximity.cache_size > 0:
                proximity = CachedProximity(proximity,
                                            capacity=self._config.proximity.cache_size)
        self._proximity = proximity
        self._planner = QueryPlanner(self)
        self._algorithms: Dict[str, TopKAlgorithm] = {}  # guarded-by: _algorithms_lock
        # Algorithm instances are stateless per search, so they are shared
        # across the threads serving requests; only their lazy creation
        # needs serialising.
        self._algorithms_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def dataset(self) -> Dataset:
        """The dataset being queried."""
        return self._dataset

    @property
    def config(self) -> EngineConfig:
        """The engine configuration in effect."""
        return self._config

    @property
    def proximity(self) -> ProximityMeasure:
        """The proximity measure used for social relevance."""
        return self._proximity

    @property
    def scoring(self) -> ScoringModel:
        """A scoring model bound to this engine's configuration."""
        return ScoringModel(self._dataset, self._proximity, self._config.scoring)

    @property
    def planner(self) -> QueryPlanner:
        """The query planner deciding every execution route."""
        return self._planner

    def algorithms(self) -> List[str]:
        """Names of every available top-k algorithm."""
        return list(available_algorithms())

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #

    def _algorithm(self, name: str) -> TopKAlgorithm:
        if name not in self._algorithms:
            with self._algorithms_lock:
                if name not in self._algorithms:
                    self._algorithms[name] = create_algorithm(
                        name, self._dataset, self._proximity, self._config,
                    )
        return self._algorithms[name]

    def search(self, seeker: int, tags: Sequence[str], k: int = 10,
               algorithm: Optional[str] = None) -> QueryResult:
        """Answer a query for ``seeker`` over ``tags`` returning ``k`` items."""
        query = Query(seeker=seeker, tags=tuple(tags), k=k)
        return self.run(query, algorithm=algorithm)

    def run(self, query: Query, algorithm: Optional[str] = None) -> QueryResult:
        """Run a prepared :class:`Query` with the configured (or given) algorithm.

        The planner records the route through its memoised route table;
        use :meth:`explain_plan` for the full plan record.
        """
        name = algorithm or self._config.algorithm
        tracer = obs_trace.get_tracer()
        if tracer is None:  # production default: zero per-query overhead
            self._planner.route(name)
            return self._algorithm(name).search(query)
        with tracer.span("engine.run", seeker=query.seeker,
                         tags=",".join(query.tags), k=query.k,
                         algorithm=name) as root:
            with tracer.span("plan.route") as route_span:
                executor, reason = self._planner.route(name)
                route_span.set(executor=executor,
                               memo_hits=self._planner.route_memo_hits,
                               lookups=self._planner.route_lookups)
            root.set(executor=executor, reason=reason)
            with tracer.span("algorithm.search", algorithm=name):
                return self._algorithm(name).search(query)

    def explain_plan(self, query: Query,
                     algorithm: Optional[str] = None) -> ExecutionPlan:
        """The full execution plan for ``query`` — with the seeker's
        frontier bound — without executing it (backs ``repro explain``)."""
        return self._planner.plan(query, algorithm=algorithm, preview=True)

    def run_many(self, queries: Iterable[Query],
                 algorithm: Optional[str] = None) -> List[QueryResult]:
        """Run queries one after another on the calling thread."""
        return [self.run(query, algorithm=algorithm) for query in queries]

    # ------------------------------------------------------------------ #
    # Reconfiguration
    # ------------------------------------------------------------------ #

    def with_alpha(self, alpha: float) -> "SocialSearchEngine":
        """Return a new engine identical to this one but with a different α.

        The proximity measure (and its cache) is shared, so sweeping α in an
        experiment does not recompute proximity vectors.
        """
        config = replace(self._config,
                         scoring=replace(self._config.scoring, alpha=alpha))
        return SocialSearchEngine(self._dataset, config, proximity=self._proximity)

    def with_algorithm(self, algorithm: str) -> "SocialSearchEngine":
        """Return a new engine defaulting to a different algorithm (shared proximity)."""
        config = replace(self._config, algorithm=algorithm)
        return SocialSearchEngine(self._dataset, config, proximity=self._proximity)

    def explain(self, result: QueryResult) -> str:
        """Human-readable explanation of a query result (used by examples)."""
        lines = [
            f"query: seeker={result.query.seeker} tags={list(result.query.tags)} "
            f"k={result.query.k}",
            f"algorithm: {result.algorithm} "
            f"(alpha={self._config.scoring.alpha}, "
            f"proximity={self._config.proximity.measure})",
            f"latency: {result.latency_seconds * 1000.0:.2f} ms, "
            f"early termination: {result.terminated_early}",
            f"accesses: {result.accounting.to_dict()}",
            "results:",
        ]
        for rank, item in enumerate(result.items, start=1):
            record = self._dataset.items.get_or_none(item.item_id)
            title = record.title if record is not None else f"item-{item.item_id}"
            lines.append(
                f"  {rank:2d}. {title} (id={item.item_id}) "
                f"score={item.score:.4f} [textual={item.textual:.4f}, "
                f"social={item.social:.4f}]"
            )
        return "\n".join(lines)
