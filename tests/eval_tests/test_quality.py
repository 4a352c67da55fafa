"""Quality meter: recall@k, rank correlation and workload aggregates.

The meter compares approximate answers against the exact ones; its numbers
feed the landmark bench suite's curve and the CI recall gate, so the
arithmetic is pinned on hand-built results with known overlaps.
"""

import pytest

from repro.core.query import Query, QueryResult, ScoredItem
from repro.eval.quality import (
    quality_summary,
    rank_correlation,
    recall_at_k,
    result_signature,
)


def _result(item_ids, scores=None):
    scores = scores or [1.0 - 0.1 * rank for rank in range(len(item_ids))]
    items = [ScoredItem(item_id=item_id, score=score)
             for item_id, score in zip(item_ids, scores)]
    query = Query(seeker=0, tags=("jazz",), k=len(item_ids) or 1)
    return QueryResult(query=query, items=items, algorithm="exact")


class TestRecall:
    def test_identical_rankings_recall_one(self):
        exact = _result([1, 2, 3])
        assert recall_at_k(exact, _result([1, 2, 3])) == 1.0

    def test_order_does_not_matter(self):
        exact = _result([1, 2, 3])
        assert recall_at_k(exact, _result([3, 1, 2])) == 1.0

    def test_missing_items_lower_recall(self):
        exact = _result([1, 2, 3, 4])
        approx = _result([1, 2, 9, 8])
        assert recall_at_k(exact, approx) == pytest.approx(0.5)

    def test_k_prefix_is_what_counts(self):
        exact = _result([1, 2, 3, 4])
        # 2 appears in the approximate answer, but outside the top-2 cut.
        approx = _result([1, 9, 2, 4])
        assert recall_at_k(exact, approx, k=2) == pytest.approx(0.5)

    def test_empty_exact_answer_is_perfect(self):
        assert recall_at_k(_result([]), _result([5])) == 1.0


class TestRankCorrelation:
    def test_same_order_is_one(self):
        exact = _result([1, 2, 3, 4])
        assert rank_correlation(exact, _result([1, 2, 3, 4])) == 1.0

    def test_reversed_order_is_minus_one(self):
        exact = _result([1, 2, 3, 4])
        assert rank_correlation(exact, _result([4, 3, 2, 1])) == -1.0

    def test_only_common_items_are_compared(self):
        exact = _result([1, 2, 3])
        approx = _result([1, 9, 2])  # 1 before 2 in both: concordant
        assert rank_correlation(exact, approx) == 1.0


class TestQualitySummary:
    def test_aggregates_over_workload(self):
        exact = [_result([1, 2, 3, 4]), _result([5, 6, 7, 8])]
        approx = [_result([1, 2, 3, 4]), _result([5, 6, 9, 8])]
        summary = quality_summary(exact, approx)
        assert summary["queries"] == 2.0
        assert summary["recall_mean"] == pytest.approx(0.875)
        assert summary["recall_min"] == pytest.approx(0.75)
        assert summary["rank_correlation_mean"] == pytest.approx(1.0)

    def test_workload_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            quality_summary([_result([1])], [])


class TestResultSignature:
    def test_signature_covers_ranking_scores_and_accounting(self):
        result = _result([1, 2], scores=[0.9, 0.4])
        signature = result_signature(result)
        assert signature["items"] == [(1, 0.9), (2, 0.4)]
        assert signature["accounting"] == result.accounting.to_dict()

    def test_score_changes_change_the_signature(self):
        left = _result([1, 2], scores=[0.9, 0.4])
        right = _result([1, 2], scores=[0.9, 0.3])
        assert result_signature(left) != result_signature(right)
