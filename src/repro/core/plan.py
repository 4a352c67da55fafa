"""The query planner: every execution-path choice, made explicit.

Four PRs of optimisation left the engine with many implicit execution
paths — scalar vs vectorized scoring, online vs cached vs materialized
proximity, python-dict vs arena-array storage (with or without pending
delta overlays), and single- vs multi-partition scans — chosen by ``if``
checks scattered across ``SocialSearchEngine`` and ``QueryService``.

This module centralises those decisions.  A :class:`QueryPlanner` inspects
the engine once (dataset backing, proximity wrapper, scoring mode,
partition layout) and emits an :class:`ExecutionPlan` per query — a plain,
inspectable record of *how* the query will run — which the engine then
merely drives.  ``repro explain`` and the service's ``/explain`` endpoint
print plans without executing them; the equivalence property tests pin the
contract that every exact route a planner can emit returns identical
rankings, scores and access accounting.

The one approximate route is opt-in: on the partitioned route a query
carrying ``effort="fast"`` is served by the landmark-sketch executor when
the engine built a sketch, and by the exact scan otherwise
(:meth:`QueryPlanner.serving`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .query import Query
from .topk.base import available_algorithms

#: Executor routes a plan can select.
EXECUTOR_PARTITIONED = "partitioned-exact"
EXECUTOR_ALGORITHM = "algorithm"

#: Serving modes of the partitioned route: the exact scan, and the
#: landmark-sketch executor (approximate proximity, no per-seeker
#: precomputation).
SERVING_EXACT = "exact"
SERVING_LANDMARK = "landmark"


@dataclass(frozen=True)
class ServingDecision:
    """How the partitioned route will serve one query's effort hint."""

    mode: str
    reason: str


@dataclass(frozen=True)
class PartitionPreview:
    """One shard's role in a (not yet executed) partitioned scan."""

    #: Partition id.
    partition: int
    #: Candidate items of the query that live in this shard.
    candidates: int
    #: Admissible upper bound on any of those candidates' blended score.
    upper_bound: float
    #: Whether the bound already proves the shard cannot reach the top-k.
    pruned: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "partition": self.partition,
            "candidates": self.candidates,
            "upper_bound": self.upper_bound,
            "pruned": self.pruned,
        }


@dataclass(frozen=True)
class ExecutionPlan:
    """How one query will execute — the planner's full decision record.

    ``fan_out`` is the number of partitions the scatter phase will touch
    after bound pruning (1 for single-partition routes); the optional
    ``partition_previews`` carry the per-shard bound estimates behind that
    number when the plan was built with ``preview=True``.
    """

    seeker: int
    tags: Tuple[str, ...]
    k: int
    algorithm: str
    executor: str
    backing: str
    pending_delta: int
    proximity_path: str
    scoring_path: str
    partitions: int
    fan_out: int
    reason: str
    frontier_bound: Optional[float] = None
    prune_threshold: Optional[float] = None
    partition_previews: Optional[Tuple[PartitionPreview, ...]] = None
    #: How the route serves the query's effort hint (exact / landmark).
    serving_mode: str = SERVING_EXACT
    serving_reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (the ``/explain`` payload)."""
        data: Dict[str, object] = {
            "query": {"seeker": self.seeker, "tags": list(self.tags),
                      "k": self.k},
            "algorithm": self.algorithm,
            "executor": self.executor,
            "backing": self.backing,
            "pending_delta": self.pending_delta,
            "proximity_path": self.proximity_path,
            "scoring_path": self.scoring_path,
            "partitions": self.partitions,
            "fan_out": self.fan_out,
            "reason": self.reason,
            "serving_mode": self.serving_mode,
        }
        if self.serving_reason:
            data["serving_reason"] = self.serving_reason
        if self.frontier_bound is not None:
            data["frontier_bound"] = self.frontier_bound
        if self.prune_threshold is not None:
            data["prune_threshold"] = self.prune_threshold
        if self.partition_previews is not None:
            data["partition_previews"] = [preview.to_dict()
                                          for preview in self.partition_previews]
        return data

    def describe(self) -> str:
        """Human-readable multi-line rendering (the ``repro explain`` output)."""
        lines = [
            f"query:      seeker={self.seeker} tags={list(self.tags)} k={self.k}",
            f"algorithm:  {self.algorithm} ({self.scoring_path} scoring)",
            f"backing:    {self.backing}"
            + (f" ({self.pending_delta} delta actions pending)"
               if self.pending_delta else ""),
            f"proximity:  {self.proximity_path}",
            f"executor:   {self.executor} "
            f"(partitions={self.partitions}, fan-out={self.fan_out})",
            f"reason:     {self.reason}",
        ]
        if self.serving_mode != SERVING_EXACT or self.serving_reason:
            lines.append(f"serving:    {self.serving_mode}"
                         + (f" -- {self.serving_reason}"
                            if self.serving_reason else ""))
        if self.frontier_bound is not None:
            lines.append(f"bounds:     frontier={self.frontier_bound:.6f}"
                         + (f", prune-threshold={self.prune_threshold:.6f}"
                            if self.prune_threshold is not None else ""))
        if self.partition_previews:
            lines.append("partitions:")
            for preview in self.partition_previews:
                verdict = "PRUNED" if preview.pruned else "scan"
                lines.append(
                    f"  shard {preview.partition}: {preview.candidates} candidates, "
                    f"upper bound {preview.upper_bound:.6f} -> {verdict}")
        return "\n".join(lines)


class QueryPlanner:
    """Chooses an execution route per query by inspecting the engine once.

    The planner holds only a reference to its engine; every ``plan`` call
    re-reads the *live* signals that can change under it (pending delta
    size, whether proximity shards are built), so plans stay truthful while
    updates stream in.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        # Routes depend only on (algorithm, scoring mode, executor
        # presence) — all fixed for an engine's lifetime — so the hot
        # per-query path reads a dict instead of re-deriving the decision.
        self._routes: Dict[str, Tuple[str, str]] = {}
        #: Route lookups / lookups answered from the memo (observability:
        #: the miss rate should be ~0 in steady state, and per-route
        #: decision counts show the serving mix).
        self.route_lookups = 0
        self.route_memo_hits = 0
        self._route_decisions: Dict[str, int] = {}
        #: Per-mode serving decisions (only queries that carried a hint
        #: reach the decision logic; hint-less queries are exact by
        #: construction and are counted under ``route_decisions``).
        self._serving_decisions: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Engine signals
    # ------------------------------------------------------------------ #

    def backing(self) -> str:
        """``"arena"`` for array-backed (mmap) storage, else ``"python"``."""
        return ("arena"
                if hasattr(self._engine.dataset.tagging, "delta_size")
                else "python")

    def pending_delta(self) -> int:
        """Delta actions overlaid on frozen arrays (0 for python backing)."""
        return int(getattr(self._engine.dataset.tagging, "delta_size", 0))

    def proximity_path(self) -> str:
        """How proximity vectors are served, as a short route name."""
        proximity = self._engine.proximity
        kind = type(proximity).__name__
        if kind == "MaterializedProximity":
            return "materialized" if proximity.built else "materialized-lazy"
        if kind == "CachedProximity":
            return "cached"
        return "online"

    def scoring_path(self) -> str:
        """``"vectorized"`` (numpy kernels) or ``"scalar"`` (reference path)."""
        return ("vectorized" if self._engine.config.scoring.vectorized
                else "scalar")

    def _resolve(self, algorithm: Optional[str]) -> str:
        return algorithm or self._engine.config.algorithm

    # ------------------------------------------------------------------ #
    # Serving decisions
    # ------------------------------------------------------------------ #

    def serving(self, query: Query,
                executor: str = EXECUTOR_PARTITIONED) -> ServingDecision:
        """Pick the serving mode for one query's effort hint.

        ``effort="fast"`` routes to the landmark executor when the engine
        built one (``proximity.landmarks > 0``); everything else serves
        exact.  Serving modes only exist on the partitioned route — the
        registry algorithms have their own early-termination semantics —
        so other routes always serve exact.
        """
        decision = self._serving(query, executor)
        self._serving_decisions[decision.mode] = (
            self._serving_decisions.get(decision.mode, 0) + 1)
        return decision

    def _serving(self, query: Query, executor: str) -> ServingDecision:
        if executor != EXECUTOR_PARTITIONED:
            return ServingDecision(
                SERVING_EXACT,
                "serving hints apply to the partitioned route only; this "
                "route keeps its own termination semantics")
        if query.effort != "fast":
            return ServingDecision(
                SERVING_EXACT, "exact unless the query says effort=fast")
        if getattr(self._engine, "landmark_executor", None) is None:
            return ServingDecision(
                SERVING_EXACT,
                "effort=fast with no landmark tier configured; serving the "
                "exact scan")
        return ServingDecision(
            SERVING_LANDMARK,
            "effort=fast routes to the landmark-sketch executor")

    def serving_stats(self) -> Dict[str, int]:
        """Per-mode decision counts for hinted queries."""
        return dict(self._serving_decisions)

    # ------------------------------------------------------------------ #
    # Single-query planning
    # ------------------------------------------------------------------ #

    def plan(self, query: Query, algorithm: Optional[str] = None,
             preview: bool = False) -> ExecutionPlan:
        """Emit the execution plan for one query (optionally with bounds).

        ``preview=True`` additionally computes the per-partition candidate
        counts and admissible upper bounds the scatter phase would use —
        the expensive-ish part of ``repro explain`` — without running any
        social gather or ranking.
        """
        name = self._resolve(algorithm)
        executor_obj = getattr(self._engine, "partition_executor", None)
        partitions = (executor_obj.num_partitions
                      if executor_obj is not None else 1)
        route, reason = self.route(name)
        fan_out = partitions if route == EXECUTOR_PARTITIONED else 1
        frontier = None
        threshold = None
        previews: Optional[Tuple[PartitionPreview, ...]] = None
        if preview and route == EXECUTOR_PARTITIONED:
            bounds = executor_obj.preview(query)
            frontier = bounds.frontier_bound
            threshold = bounds.prune_threshold
            previews = tuple(
                PartitionPreview(partition=entry["partition"],
                                 candidates=entry["candidates"],
                                 upper_bound=entry["upper_bound"],
                                 pruned=entry["pruned"])
                for entry in bounds.partitions)
            fan_out = sum(1 for preview_ in previews
                          if not preview_.pruned and preview_.candidates)
        elif preview:
            frontier = self._engine.proximity.frontier_bound(query.seeker)
        serving_mode = SERVING_EXACT
        serving_reason = ""
        if query.has_serving_hint:
            decision = self.serving(query, route)
            serving_mode = decision.mode
            serving_reason = decision.reason
        return ExecutionPlan(
            seeker=query.seeker,
            tags=query.tags,
            k=query.k,
            algorithm=name,
            executor=route,
            backing=self.backing(),
            pending_delta=self.pending_delta(),
            proximity_path=self.proximity_path(),
            scoring_path=self.scoring_path(),
            partitions=partitions,
            fan_out=fan_out,
            reason=reason,
            frontier_bound=frontier,
            prune_threshold=threshold,
            partition_previews=previews,
            serving_mode=serving_mode,
            serving_reason=serving_reason,
        )

    def route(self, algorithm: Optional[str] = None) -> Tuple[str, str]:
        """The memoised ``(executor, reason)`` route for an algorithm name.

        This is the planner's hot path: :meth:`SocialSearchEngine.run`
        consults it per query, and :meth:`plan` materialises the full
        :class:`ExecutionPlan` record around it on demand.
        """
        name = self._resolve(algorithm)
        self.route_lookups += 1
        cached = self._routes.get(name)
        if cached is None:
            cached = self._route(name,
                                 getattr(self._engine, "partition_executor",
                                         None))
            # Only registered algorithms earn a cache slot: unknown names
            # come straight off the serving path (HTTP ?algorithm=...) and
            # fail later with UnknownAlgorithmError — memoising them would
            # let clients grow this dict without bound.
            if name in available_algorithms():
                self._routes[name] = cached
        else:
            self.route_memo_hits += 1
        executor = cached[0]
        self._route_decisions[executor] = (
            self._route_decisions.get(executor, 0) + 1)
        return cached

    def _route(self, name: str, executor_obj) -> Tuple[str, str]:
        """Pick the executor route for algorithm ``name`` plus the why."""
        if executor_obj is None:
            return (EXECUTOR_ALGORITHM,
                    "single partition configured; the registry algorithm "
                    "scans the whole corpus")
        if name != "exact":
            return (EXECUTOR_ALGORITHM,
                    f"algorithm {name!r} streams bound-ordered accesses "
                    "with early termination; scatter-gather applies to the "
                    "exact block scan only")
        if not self._engine.config.scoring.vectorized:
            return (EXECUTOR_ALGORITHM,
                    "scalar scoring requested; the partitioned executor "
                    "is built on the vectorized kernels")
        return (EXECUTOR_PARTITIONED,
                "exact vectorized scan scatters over the item shards; "
                "shards whose admissible bound cannot reach the top-k "
                "are skipped")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def route_stats(self) -> Dict[str, object]:
        """Route-memo hit accounting and per-executor decision counts."""
        return {
            "route_lookups": self.route_lookups,
            "route_memo_hits": self.route_memo_hits,
            "route_decisions": dict(self._route_decisions),
            "serving_decisions": dict(self._serving_decisions),
        }

    def describe(self) -> Dict[str, object]:
        """The engine-level plan shape (the service's ``stats()`` block)."""
        executor_obj = getattr(self._engine, "partition_executor", None)
        description: Dict[str, object] = {
            "algorithm": self._engine.config.algorithm,
            "backing": self.backing(),
            "pending_delta": self.pending_delta(),
            "proximity_path": self.proximity_path(),
            "scoring_path": self.scoring_path(),
            "partitions": (executor_obj.num_partitions
                           if executor_obj is not None else 1),
        }
        description.update(self.route_stats())
        return description
