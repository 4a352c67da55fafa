"""The query planner: every execution-path choice, made explicit.

The engine has a few implicit execution paths — online vs cached
proximity, with or without pending delta overlays — that would otherwise
be chosen by ``if`` checks scattered across ``SocialSearchEngine`` and
``QueryService``.

This module centralises those decisions.  A :class:`QueryPlanner` inspects
the engine once (proximity wrapper) and
emits an :class:`ExecutionPlan` per query — a plain, inspectable record of
*how* the query will run — which the engine then merely drives.  ``repro
explain`` and the service's ``/explain`` endpoint print plans without
executing them; the equivalence property tests pin the contract that
in-memory and arena-loaded datasets, and every proximity path, return
identical rankings, scores and access accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .query import Query
from .topk.base import available_algorithms

#: The executor route every plan selects: the registry algorithm.
EXECUTOR_ALGORITHM = "algorithm"


@dataclass(frozen=True)
class ExecutionPlan:
    """How one query will execute — the planner's full decision record."""

    seeker: int
    tags: Tuple[str, ...]
    k: int
    algorithm: str
    executor: str
    pending_delta: int
    proximity_path: str
    reason: str
    frontier_bound: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (the ``/explain`` payload)."""
        data: Dict[str, object] = {
            "query": {"seeker": self.seeker, "tags": list(self.tags),
                      "k": self.k},
            "algorithm": self.algorithm,
            "executor": self.executor,
            "pending_delta": self.pending_delta,
            "proximity_path": self.proximity_path,
            "reason": self.reason,
        }
        if self.frontier_bound is not None:
            data["frontier_bound"] = self.frontier_bound
        return data

    def describe(self) -> str:
        """Human-readable multi-line rendering (the ``repro explain`` output)."""
        lines = [
            f"query:      seeker={self.seeker} tags={list(self.tags)} k={self.k}",
            f"algorithm:  {self.algorithm}",
            f"delta:      {self.pending_delta} actions pending",
            f"proximity:  {self.proximity_path}",
            f"executor:   {self.executor}",
            f"reason:     {self.reason}",
        ]
        if self.frontier_bound is not None:
            lines.append(f"bounds:     frontier={self.frontier_bound:.6f}")
        return "\n".join(lines)


class QueryPlanner:
    """Chooses an execution route per query by inspecting the engine once.

    The planner holds only a reference to its engine; every ``plan`` call
    re-reads the *live* signals that can change under it (pending delta
    size), so plans stay truthful while updates stream in.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        # Routes depend only on the algorithm name, so the hot per-query
        # path reads a dict instead of re-deriving the decision.
        self._routes: Dict[str, Tuple[str, str]] = {}
        #: Route lookups / lookups answered from the memo (observability:
        #: the miss rate should be ~0 in steady state).
        self.route_lookups = 0
        self.route_memo_hits = 0
        self._route_decisions: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Engine signals
    # ------------------------------------------------------------------ #

    def pending_delta(self) -> int:
        """Actions in the tagging store's tail, awaiting compaction."""
        return self._engine.dataset.tagging.delta_size

    def proximity_path(self) -> str:
        """How proximity vectors are served, as a short route name."""
        if type(self._engine.proximity).__name__ == "CachedProximity":
            return "cached"
        return "online"

    def _resolve(self, algorithm: Optional[str]) -> str:
        return algorithm or self._engine.config.algorithm

    # ------------------------------------------------------------------ #
    # Single-query planning
    # ------------------------------------------------------------------ #

    def plan(self, query: Query, algorithm: Optional[str] = None,
             preview: bool = False) -> ExecutionPlan:
        """Emit the execution plan for one query.

        ``preview=True`` additionally records the seeker's frontier bound
        (the largest proximity any friend can contribute) without running
        any ranking.
        """
        name = self._resolve(algorithm)
        route, reason = self.route(name)
        return ExecutionPlan(
            seeker=query.seeker,
            tags=query.tags,
            k=query.k,
            algorithm=name,
            executor=route,
            pending_delta=self.pending_delta(),
            proximity_path=self.proximity_path(),
            reason=reason,
            frontier_bound=(self._engine.proximity.frontier_bound(query.seeker)
                            if preview else None),
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
            cached = (EXECUTOR_ALGORITHM,
                      f"the registry algorithm {name!r} scans the whole "
                      "corpus")
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

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def route_stats(self) -> Dict[str, object]:
        """Route-memo hit accounting and per-executor decision counts."""
        return {
            "route_lookups": self.route_lookups,
            "route_memo_hits": self.route_memo_hits,
            "route_decisions": dict(self._route_decisions),
        }

    def describe(self) -> Dict[str, object]:
        """The engine-level plan shape (the service's ``stats()`` block)."""
        description: Dict[str, object] = {
            "algorithm": self._engine.config.algorithm,
            "pending_delta": self.pending_delta(),
            "proximity_path": self.proximity_path(),
        }
        description.update(self.route_stats())
        return description
