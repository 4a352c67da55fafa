"""Reference exact search: the scalar one-``exact_score``-per-candidate loop.

``repro.core.topk.exact.ExactBaseline`` scores the whole candidate block
with the numpy kernels and selects with ``argpartition``; this is the loop
it replaced, kept verbatim as the oracle the equivalence tests compare it
with: identical item ids and access accounting, scores within 1e-12.
"""

from __future__ import annotations

import time
from typing import Set

from repro.core.accounting import AccessAccountant
from repro.core.query import Query, QueryResult
from repro.core.topk.base import TopKAlgorithm
from repro.core.topk.heap import TopKHeap


class ScalarExact(TopKAlgorithm):
    """Score every item touching a query tag, one item at a time."""

    name = "exact"

    def search(self, query: Query) -> QueryResult:
        self._validate(query)
        started_at = time.perf_counter()
        accountant = AccessAccountant()

        proximity_vector = self._scoring.proximity_vector(query.seeker)
        accountant.charge_user_visit(len(proximity_vector))

        candidates: Set[int] = set()
        for tag in query.tags:
            postings = self._dataset.inverted_index.cursor(tag)
            while True:
                posting = postings.next()
                if posting is None:
                    break
                accountant.charge_sequential()
                candidates.add(posting.item_id)
        accountant.charge_candidate(len(candidates))

        heap = TopKHeap(query.k)
        for item_id in sorted(candidates):
            breakdown = self._scoring.exact_score(
                query.seeker, item_id, query.tags, proximity_vector,
                accountant=accountant,
            )
            heap.offer(item_id, breakdown.score)

        return self._finalise(query, heap, accountant, started_at,
                              terminated_early=False,
                              proximity_vector=proximity_vector)


def scalar_exact(engine, query: Query) -> QueryResult:
    """Answer ``query`` with the scalar loop over ``engine``'s dataset,
    proximity measure and configuration."""
    return ScalarExact(engine.dataset, engine.proximity, engine.config).search(query)
