"""Tests for the tagging relation store, against the dict oracle.

Every ``store`` test runs on the three ways a store comes to be: columns
built by ``TaggingStore.from_actions``, an in-memory ``Dataset``'s store and
an arena-loaded ``Dataset``'s store.  The dataset forms take their updates
through ``DatasetUpdater``, which keeps the bound endorser index current.
"""

import numpy as np
import pytest

from repro.graph import SocialGraph
from repro.storage import Dataset, DatasetUpdater, TaggingAction, TaggingStore
from tagging_oracle import TaggingStore as OracleTaggingStore

ACTIONS = [
    TaggingAction(1, 100, "jazz", timestamp=1),
    TaggingAction(1, 101, "jazz", timestamp=2),
    TaggingAction(2, 100, "jazz", timestamp=3),
    TaggingAction(2, 102, "rock", timestamp=4),
    TaggingAction(3, 100, "vinyl", timestamp=5),
]


class _Form:
    """One store form plus the write path that keeps it consistent."""

    def __init__(self, kind, tmp_path):
        self.updater = None
        if kind == "columns":
            self.store = TaggingStore.from_actions(ACTIONS)
            return
        dataset = Dataset.build(SocialGraph.from_edges(6, [(0, 1, 0.5)]), ACTIONS)
        if kind == "arena":
            dataset.to_arena(tmp_path / "tagging.arena")
            dataset = Dataset.from_arena(tmp_path / "tagging.arena")
        self.store = dataset.tagging
        self.updater = DatasetUpdater(dataset)

    def add(self, action):
        if self.updater is None:
            return self.store.add(action)
        return self.updater.add_actions([action]).actions_added == 1

    def compact(self):
        if self.updater is None:
            return self.store.compact()
        return self.updater.compact()


@pytest.fixture(params=["columns", "in-memory", "arena"])
def form(request, tmp_path):
    return _Form(request.param, tmp_path)


@pytest.fixture()
def store(form):
    return form.store


@pytest.fixture()
def oracle():
    reference = OracleTaggingStore()
    reference.add_many(ACTIONS)
    return reference


def _same_reads(store, oracle, users=range(6), tags=("jazz", "rock", "vinyl", "punk")):
    assert len(store) == len(oracle)
    assert store.actions() == oracle.actions()
    assert store.tags() == oracle.tags()
    assert store.users() == oracle.users()
    for user in users:
        assert store.items_for_user(user) == oracle.items_for_user(user)
        assert store.tags_for_user(user) == oracle.tags_for_user(user)
        for tag in tags:
            assert store.items_for_user_tag(user, tag) \
                == oracle.items_for_user_tag(user, tag)
    for got, want in zip(store.action_histograms(5), oracle.action_histograms(5)):
        np.testing.assert_array_equal(got, want)


class TestTaggingStore:
    def test_reads_match_the_oracle(self, store, oracle):
        _same_reads(store, oracle)

    def test_length_counts_distinct_actions(self, store):
        assert len(store) == 5

    def test_duplicate_triple_ignored(self, form, store):
        added = form.add(TaggingAction(1, 100, "jazz", timestamp=99))
        assert added is False
        assert len(store) == 5
        assert store.delta_size == 0

    def test_from_actions_keeps_first_occurrences_in_order(self, oracle):
        doubled = ACTIONS + [TaggingAction(1, 100, "jazz", timestamp=99),
                             TaggingAction(3, 100, "vinyl", timestamp=0)]
        oracle.add_many(doubled)
        assert TaggingStore.from_actions(doubled).actions() == oracle.actions()

    def test_items_for_user_tag(self, store):
        assert store.items_for_user_tag(1, "jazz") == frozenset({100, 101})
        assert store.items_for_user_tag(1, "rock") == frozenset()
        assert store.items_for_user_tag(1, "funk") == frozenset()

    def test_items_for_user(self, store):
        assert store.items_for_user(2) == frozenset({100, 102})

    def test_tags_for_user(self, store):
        assert store.tags_for_user(1) == {"jazz": 2}
        assert store.tags_for_user(42) == {}

    def test_tags_sorted(self, store):
        assert store.tags() == ["jazz", "rock", "vinyl"]

    def test_users(self, store):
        assert store.users() == [1, 2, 3]

    def test_contains(self, store):
        assert store.contains(1, 100, "jazz")
        assert not store.contains(1, 100, "rock")
        assert not store.contains(1, 100, "funk")

    def test_tail_adds_read_like_the_oracle(self, form, store, oracle):
        extra = [TaggingAction(4, 103, "punk", timestamp=6),
                 TaggingAction(1, 102, "rock", timestamp=7),
                 TaggingAction(4, 103, "punk", timestamp=8)]
        assert [form.add(action) for action in extra] == [True, True, False]
        oracle.add_many(extra)
        assert store.delta_size == 2
        assert store.contains(4, 103, "punk")
        _same_reads(store, oracle)

    def test_compact_folds_the_tail(self, form, store, oracle):
        form.add(TaggingAction(4, 103, "punk", timestamp=6))
        oracle.add(TaggingAction(4, 103, "punk", timestamp=6))
        assert form.compact() == 1
        assert store.delta_size == 0
        assert form.compact() == 0
        _same_reads(store, oracle)

    def test_action_arrays_reintern_tags(self, store):
        columns = store.action_arrays({"vinyl": 0, "rock": 1, "jazz": 2})
        assert columns["tag_ids"].tolist() == [2, 2, 2, 1, 0]
        assert columns["user_ids"].tolist() == [1, 1, 2, 2, 3]
        assert columns["timestamps"].tolist() == [1, 2, 3, 4, 5]

    def test_unused_table_entries_are_dropped(self):
        empty = np.zeros(1, dtype=np.int64)
        store = TaggingStore(["a", "b", "c"], empty, empty,
                             np.array([2], dtype=np.int64), empty)
        assert store.tags() == ["c"]
        assert store.actions() == [TaggingAction(0, 0, "c")]

    def test_action_dict_roundtrip(self):
        action = TaggingAction(7, 8, "x", timestamp=3)
        assert TaggingAction.from_dict(action.to_dict()) == action


class TestHoldoutSplit:
    def test_split_fractions(self):
        tagging = TaggingStore.from_actions(
            [TaggingAction(1, index, "t", timestamp=index) for index in range(10)])
        train, holdout = tagging.split_holdout(0.3)
        assert len(train) == 7
        assert len(holdout) == 3

    def test_holdout_takes_latest_actions(self):
        tagging = TaggingStore.from_actions(
            [TaggingAction(1, index, "t", timestamp=index) for index in range(10)])
        train, holdout = tagging.split_holdout(0.2)
        assert holdout.items_for_user(1) == frozenset({8, 9})

    def test_every_user_keeps_at_least_one_action(self):
        tagging = TaggingStore.from_actions(
            [TaggingAction(1, 1, "t"), TaggingAction(2, 2, "t")])
        train, holdout = tagging.split_holdout(0.9)
        assert train.items_for_user(1)
        assert train.items_for_user(2)

    def test_ties_order_by_item_then_tag_string(self):
        # Equal timestamps: the tag string decides, not the table id.
        tied = [TaggingAction(5, 1, "b"), TaggingAction(5, 1, "a"),
                TaggingAction(5, 0, "z")]
        store = TaggingStore(["b", "a", "z"],
                             np.array([5, 5, 5]), np.array([1, 1, 0]),
                             np.array([0, 1, 2]), np.zeros(3, dtype=np.int64))
        reference = OracleTaggingStore()
        reference.add_many(tied)
        for got, want in zip(store.split_holdout(0.5), reference.split_holdout(0.5)):
            assert got.actions() == want.actions()

    def test_split_matches_the_oracle(self, form, store, oracle):
        form.add(TaggingAction(4, 103, "punk", timestamp=0))
        oracle.add(TaggingAction(4, 103, "punk", timestamp=0))
        for got, want in zip(store.split_holdout(0.4), oracle.split_holdout(0.4)):
            _same_reads(got, want)

    def test_invalid_fraction_rejected(self, store):
        with pytest.raises(ValueError):
            store.split_holdout(1.0)
        with pytest.raises(ValueError):
            store.split_holdout(-0.1)

    def test_split_partitions_actions(self, store):
        train, holdout = store.split_holdout(0.4)
        assert len(train) + len(holdout) == len(store)
