"""Materialised-proximity baseline.

Precomputes and stores the *complete* proximity vector of every user at
build time, so query processing only has to look proximities up.  This is
the "unlimited precomputation" end of the design space: fastest per query,
but with a per-user storage and maintenance cost that does not scale —
exactly the trade-off the on-line algorithms are designed to avoid.  The
footprint benchmark (Table 3) reports its memory cost next to its latency.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Set

from ..config import EngineConfig
from ..core.accounting import AccessAccountant
from ..core.query import Query, QueryResult
from ..core.topk.base import TopKAlgorithm, register_algorithm
from ..core.topk.heap import TopKHeap
from ..proximity.base import ProximityMeasure
from ..storage.dataset import Dataset


@register_algorithm("materialized")
class MaterializedBaseline(TopKAlgorithm):
    """Exhaustive scoring over proximity vectors precomputed for all users."""

    def __init__(self, dataset: Dataset, proximity: ProximityMeasure,
                 config: Optional[EngineConfig] = None) -> None:
        super().__init__(dataset, proximity, config)
        self._materialised: Dict[int, Dict[int, float]] = {}

    def materialise(self, users=None) -> int:
        """Precompute proximity vectors for ``users`` (default: every user).

        Returns the total number of stored (seeker, friend) entries.
        """
        if users is None:
            users = range(self._dataset.num_users)
        for user in users:
            if user not in self._materialised:
                self._materialised[user] = self._proximity.vector(user)
        return self.num_entries()

    def num_entries(self) -> int:
        """Number of stored (seeker, friend, proximity) entries."""
        return sum(len(vector) for vector in self._materialised.values())

    def memory_bytes(self) -> int:
        """Approximate memory used by the materialised vectors."""
        return self.num_entries() * 16 + len(self._materialised) * 64

    def search(self, query: Query) -> QueryResult:
        """Exhaustive scoring using the stored vector (computed lazily if missing)."""
        self._validate(query)
        started_at = time.perf_counter()
        accountant = AccessAccountant()

        vector = self._materialised.get(query.seeker)
        if vector is None:
            vector = self._proximity.vector(query.seeker)
            self._materialised[query.seeker] = vector

        candidates: Set[int] = set()
        for tag in query.tags:
            bundle = self._dataset.endorser_index.for_tag(tag)
            if bundle is not None:
                candidates.update(bundle.item_ids.tolist())
            accountant.charge_sequential(self._dataset.inverted_index.list_length(tag))
        accountant.charge_candidate(len(candidates))

        heap = TopKHeap(query.k)
        for item_id in sorted(candidates):
            breakdown = self._scoring.exact_score(
                query.seeker, item_id, query.tags, vector, accountant=accountant,
            )
            heap.offer(item_id, breakdown.score)

        return self._finalise(query, heap, accountant, started_at,
                              terminated_early=False, proximity_vector=vector)
