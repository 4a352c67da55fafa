"""Exact full-scan baseline.

Materialises the seeker's complete proximity vector, enumerates every item
that carries at least one query tag, scores each exactly and keeps the best
``k``.  It is the correctness oracle for every other algorithm and the
"no early termination" end of the latency spectrum.

The candidate block is scored with the numpy kernels
(:meth:`~repro.core.scoring.ScoringModel.score_block`) and the top ``k``
is selected with ``argpartition``.  The per-candidate ``exact_score`` loop
this replaced is kept as the test oracle (``tests/scoring_oracle.py``):
identical rankings and access accounting, scores within 1e-12.
"""

from __future__ import annotations

import time

import numpy as np

from ..accounting import AccessAccountant
from ..query import Query, QueryResult, ScoredItem
from .base import TopKAlgorithm, register_algorithm


def select_topk(item_ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the best ``k`` entries under (score desc, item id asc).

    Uses ``argpartition`` to avoid sorting the full block, then resolves
    score ties by item id over the partitioned superset so the result is
    identical to what :class:`~repro.core.topk.heap.TopKHeap` retains.
    """
    n = int(scores.shape[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    k = min(k, n)
    if k < n:
        partition = np.argpartition(scores, n - k)
        threshold = scores[partition[n - k]]
        # Keep every entry tied with the k-th best score so ties are broken
        # by item id, not by argpartition's arbitrary placement.
        selected = np.nonzero(scores >= threshold)[0]
    else:
        selected = np.arange(n)
    order = np.lexsort((item_ids[selected], -scores[selected]))
    return selected[order[:k]]


@register_algorithm("exact")
class ExactBaseline(TopKAlgorithm):
    """Score every item touching a query tag; no pruning, no bounds."""

    def search(self, query: Query) -> QueryResult:
        """Answer the query by exhaustive scoring."""
        self._validate(query)
        started_at = time.perf_counter()
        accountant = AccessAccountant()
        seeker = query.seeker

        proximity = self._scoring.proximity_vector_array(seeker)
        accountant.charge_user_visit(int(np.count_nonzero(proximity)))

        candidates = self._scoring.candidate_block(query.tags)
        block = self._scoring.score_block(seeker, candidates, query.tags,
                                          proximity=proximity, with_charges=True)

        # The accounting of scoring every candidate with exact_score: one
        # sequential access per posting read, plus the per-item random-access
        # charges score_block derived in the same pass as the scores.
        sequential = sum(self._dataset.inverted_index.list_length(tag)
                         for tag in query.tags)
        accountant.charge_sequential(sequential)
        accountant.charge_candidate(int(candidates.shape[0]))
        accountant.charge_random(int(block.random_charges.sum()))

        top = select_topk(candidates, block.scores, query.k)
        # Every other algorithm re-scores its final top k in _finalise;
        # charge those accesses too, without redoing the arithmetic.
        accountant.charge_random(int(block.random_charges[top].sum()))

        # Bulk tolist() conversion: one call per array instead of one numpy
        # scalar __float__ per field per item (a measurable share of the
        # per-query cost once scoring itself is in numpy).
        items = [
            ScoredItem(item_id=item_id, score=score, textual=textual, social=social)
            for item_id, score, textual, social in zip(
                block.item_ids[top].tolist(), block.scores[top].tolist(),  # lint: allow(hot-path-materialisation) -- k-sized top-k slices
                block.textual[top].tolist(), block.social[top].tolist())  # lint: allow(hot-path-materialisation) -- k-sized top-k slices
        ]
        return QueryResult(
            query=query,
            items=items,
            algorithm=self.name,
            latency_seconds=time.perf_counter() - started_at,
            accounting=accountant,
            terminated_early=False,
        )
