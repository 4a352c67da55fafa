"""The result signature every equivalence gate compares."""

from repro.core.query import Query, QueryResult, ScoredItem
from repro.eval.quality import result_signature


def _result(item_ids, scores=None):
    scores = scores or [1.0 - 0.1 * rank for rank in range(len(item_ids))]
    items = [ScoredItem(item_id=item_id, score=score)
             for item_id, score in zip(item_ids, scores)]
    query = Query(seeker=0, tags=("jazz",), k=len(item_ids) or 1)
    return QueryResult(query=query, items=items, algorithm="exact")


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
