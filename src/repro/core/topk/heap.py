"""Bounded top-k heap.

Keeps the best ``k`` ``(score, item)`` pairs seen so far and exposes the
k-th best score, which is the lower bound every threshold-style algorithm
compares against its upper bounds.  Ties are broken by item id so the final
ranking is deterministic across algorithms and runs.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple


class TopKHeap:
    """Fixed-capacity max-collection implemented over a min-heap.

    Entries are plain ``(score, -item_id)`` tuples (no per-entry objects to
    allocate) and the heap itself is slotted, so offering candidates in the
    per-query hot loop does not churn instance dictionaries.
    """

    __slots__ = ("_k", "_heap", "_scores")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        # Min-heap of (score, -item_id) so the weakest kept entry is at the
        # root; -item_id makes *larger* item ids evict first on score ties,
        # matching the (score desc, item_id asc) final ordering.
        self._heap: List[Tuple[float, int]] = []
        self._scores: Dict[int, float] = {}

    @property
    def k(self) -> int:
        """Capacity of the heap."""
        return self._k

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._scores

    def is_full(self) -> bool:
        """Whether ``k`` entries are currently held."""
        return len(self._heap) >= self._k

    def kth_score(self) -> float:
        """Score of the weakest kept entry, or 0.0 while not yet full.

        Using 0.0 (the global score floor) before the heap fills keeps the
        termination tests trivially false until k candidates exist.
        """
        if not self.is_full():
            return 0.0
        return self._heap[0][0]

    def offer(self, item_id: int, score: float) -> bool:
        """Offer a candidate; returns ``True`` when it is (now) retained.

        Re-offering an item replaces its previous score (scores only ever
        tighten upwards during candidate refinement).
        """
        if item_id in self._scores:
            if score <= self._scores[item_id]:
                return True
            # Remove the stale entry lazily: rebuild without it.
            self._heap = [(s, neg) for s, neg in self._heap if -neg != item_id]
            heapq.heapify(self._heap)
            del self._scores[item_id]
        entry = (score, -item_id)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
            self._scores[item_id] = score
            return True
        if entry > self._heap[0]:
            evicted_score, evicted_neg = heapq.heapreplace(self._heap, entry)
            del self._scores[-evicted_neg]
            self._scores[item_id] = score
            return True
        return False

    def items(self) -> List[Tuple[int, float]]:
        """Retained ``(item_id, score)`` pairs, best first, ties by item id."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], -entry[1]))
        return [(-neg, score) for score, neg in ordered]

    def item_ids(self) -> List[int]:
        """Retained item ids, best first."""
        return [item_id for item_id, _ in self.items()]

    def score_of(self, item_id: int) -> float:
        """Current score of a retained item (KeyError when not retained)."""
        return self._scores[item_id]
