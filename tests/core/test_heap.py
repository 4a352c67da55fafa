"""Tests for the bounded top-k heap."""

import pytest

from repro.core.topk.heap import TopKHeap


class TestTopKHeap:
    def test_keeps_best_k(self):
        heap = TopKHeap(3)
        for item_id, score in [(1, 0.1), (2, 0.9), (3, 0.5), (4, 0.7), (5, 0.3)]:
            heap.offer(item_id, score)
        assert heap.item_ids() == [2, 4, 3]

    def test_kth_score_zero_until_full(self):
        heap = TopKHeap(2)
        heap.offer(1, 0.9)
        assert heap.kth_score() == 0.0
        heap.offer(2, 0.5)
        assert heap.kth_score() == pytest.approx(0.5)

    def test_ties_keep_smallest_item_id(self):
        heap = TopKHeap(2)
        heap.offer(5, 0.5)
        heap.offer(3, 0.5)
        heap.offer(9, 0.5)
        assert heap.item_ids() == [3, 5]

    def test_items_sorted_desc_then_by_id(self):
        heap = TopKHeap(3)
        heap.offer(7, 0.4)
        heap.offer(2, 0.4)
        heap.offer(5, 0.8)
        assert heap.items() == [(5, 0.8), (2, 0.4), (7, 0.4)]

    def test_reoffer_improves_score(self):
        heap = TopKHeap(2)
        heap.offer(1, 0.2)
        heap.offer(2, 0.3)
        heap.offer(1, 0.9)
        assert heap.score_of(1) == pytest.approx(0.9)
        assert len(heap) == 2

    def test_reoffer_with_lower_score_is_ignored(self):
        heap = TopKHeap(2)
        heap.offer(1, 0.8)
        heap.offer(1, 0.3)
        assert heap.score_of(1) == pytest.approx(0.8)

    def test_contains_and_len(self):
        heap = TopKHeap(2)
        heap.offer(4, 0.5)
        assert 4 in heap
        assert 5 not in heap
        assert len(heap) == 1

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            TopKHeap(0)

    def test_eviction_removes_score(self):
        heap = TopKHeap(1)
        heap.offer(1, 0.2)
        heap.offer(2, 0.8)
        assert 1 not in heap
        assert heap.item_ids() == [2]
