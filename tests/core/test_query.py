"""Tests for the query and result model."""

import pytest

from repro.core import Query, QueryResult, ScoredItem, make_queries
from repro.core.accounting import AccessAccountant
from repro.errors import InvalidQueryError


class TestQuery:
    def test_basic_construction(self):
        query = Query(seeker=3, tags=("jazz", "rock"), k=5)
        assert query.seeker == 3
        assert query.tags == ("jazz", "rock")
        assert query.k == 5
        assert query.num_tags == 2

    def test_duplicate_tags_removed_preserving_order(self):
        query = Query(seeker=0, tags=("a", "b", "a"), k=1)
        assert query.tags == ("a", "b")

    def test_empty_tags_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query(seeker=0, tags=(), k=1)

    def test_blank_tag_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query(seeker=0, tags=("  ",), k=1)

    def test_non_string_tag_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query(seeker=0, tags=(3,), k=1)

    def test_non_positive_k_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query(seeker=0, tags=("a",), k=0)

    def test_negative_seeker_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query(seeker=-1, tags=("a",), k=1)

    def test_single_constructor(self):
        query = Query.single(2, "jazz", k=3)
        assert query.tags == ("jazz",)
        assert query.k == 3

    def test_to_dict(self):
        query = Query(seeker=1, tags=("x",), k=2)
        assert query.to_dict() == {"seeker": 1, "tags": ["x"], "k": 2}

    def test_make_queries_helper(self):
        queries = make_queries([(0, ["a"]), (1, ["b", "c"])], k=4)
        assert len(queries) == 2
        assert queries[1].tags == ("b", "c")
        assert all(query.k == 4 for query in queries)


class TestFromDict:
    """The one strict parse shared by HTTP bodies and saved trace lines."""

    def test_inverts_to_dict(self):
        query = Query(seeker=4, tags=("jazz", "rock"), k=7)
        assert Query.from_dict(query.to_dict()) == query

    def test_absent_k_means_ten(self):
        assert Query.from_dict({"seeker": 1, "tags": ["a"]}).k == 10

    def test_null_k_means_ten(self):
        assert Query.from_dict({"seeker": 1, "tags": ["a"], "k": None}).k == 10

    def test_digit_strings_are_integers(self):
        # A GET query string carries every field as text.
        query = Query.from_dict({"seeker": "3", "tags": ["a"], "k": "5"})
        assert (query.seeker, query.k) == (3, 5)

    def test_blank_tag_entries_are_dropped(self):
        # ``?tags=a,,b`` splits into an empty middle entry.
        query = Query.from_dict({"seeker": 1, "tags": ["a", "", " ", "b"]})
        assert query.tags == ("a", "b")

    @pytest.mark.parametrize("record, named", [
        ({"seeker": 1.7, "tags": ["a"]}, "'seeker'"),
        ({"seeker": True, "tags": ["a"]}, "'seeker'"),
        ({"seeker": None, "tags": ["a"]}, "'seeker'"),
        ({"seeker": [1], "tags": ["a"]}, "'seeker'"),
        ({"seeker": "one", "tags": ["a"]}, "one"),
        ({"seeker": 1, "tags": ["a"], "k": 2.9}, "'k'"),
        ({"seeker": 1, "tags": ["a"], "k": False}, "'k'"),
        ({"seeker": 1, "tags": ["a"], "k": float("inf")}, "'k'"),
        ({"seeker": 1, "tags": "jazz"}, "'tags'"),
        ({"seeker": 1, "tags": ("a",)}, "'tags'"),
        ({"seeker": 1, "tags": ["a", 2]}, "'tags'"),
        ({"tags": ["a"]}, "'seeker'"),
        ({"seeker": 1, "tags": ["a"], "effort": "fast"}, "'effort'"),
        ({"seeker": 1, "tags": ["a"], "partitions": 2}, "'partitions'"),
        ({"seeker": 1, "tags": ["a"], "algorithm": "exact"}, "'algorithm'"),
        ([1, ["a"], 3], "object"),
    ])
    def test_malformed_record_is_a_value_error_naming_it(self, record, named):
        with pytest.raises(ValueError) as excinfo:
            Query.from_dict(record)
        assert named in str(excinfo.value)
        assert not isinstance(excinfo.value, InvalidQueryError)

    @pytest.mark.parametrize("record", [
        {"seeker": -1, "tags": ["a"]},
        {"seeker": "-1", "tags": ["a"]},
        {"seeker": 1, "tags": ["a"], "k": 0},
        {"seeker": 1, "tags": []},
        {"seeker": 1, "tags": [" "]},
        {"seeker": 1},
    ])
    def test_out_of_range_record_is_an_invalid_query(self, record):
        with pytest.raises(InvalidQueryError):
            Query.from_dict(record)


class TestQueryResult:
    def _result(self):
        query = Query(seeker=0, tags=("a",), k=3)
        items = [
            ScoredItem(item_id=10, score=0.9, textual=0.5, social=0.4),
            ScoredItem(item_id=11, score=0.7),
            ScoredItem(item_id=12, score=0.2),
        ]
        return QueryResult(query=query, items=items, algorithm="exact",
                           latency_seconds=0.01, accounting=AccessAccountant(),
                           terminated_early=True)

    def test_item_ids_and_scores(self):
        result = self._result()
        assert result.item_ids == [10, 11, 12]
        assert result.scores == [0.9, 0.7, 0.2]

    def test_top(self):
        assert [item.item_id for item in self._result().top(2)] == [10, 11]

    def test_to_dict_contains_everything(self):
        data = self._result().to_dict()
        assert data["algorithm"] == "exact"
        assert data["terminated_early"] is True
        assert len(data["items"]) == 3
        assert data["query"]["seeker"] == 0
        assert "sequential_accesses" in data["accounting"]

    def test_scored_item_to_dict(self):
        item = ScoredItem(item_id=1, score=0.5, textual=0.25, social=0.25)
        assert item.to_dict()["textual"] == 0.25
