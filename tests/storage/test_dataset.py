"""Tests for the dataset bundle, holdout split and statistics."""

import pytest

from repro.errors import StorageError
from repro.graph import SocialGraph
from repro.storage import (
    Dataset,
    TaggingAction,
    TaggingStore,
    compute_dataset_statistics,
    graph_statistics_row,
)


class TestDatasetBuild:
    def test_counts(self, hand_dataset):
        assert hand_dataset.num_users == 6
        assert hand_dataset.num_items == 5
        assert hand_dataset.num_tags == 3
        assert hand_dataset.num_actions == 11

    def test_indexes_are_consistent_with_tagging(self, hand_dataset):
        assert hand_dataset.inverted_index.frequency(100, "jazz") == \
            len(hand_dataset.endorser_index.for_tag("jazz").taggers_of(100))
        assert hand_dataset.social_index.items_for(1, "jazz") == (100, 101)

    def test_every_dataset_form_holds_the_same_tagging_store(self, tmp_path):
        dataset = Dataset.build(
            SocialGraph.from_edges(3, [(0, 1, 0.5)]),
            [TaggingAction(0, 5, "jazz", timestamp=1),
             TaggingAction(0, 6, "jazz", timestamp=2),
             TaggingAction(1, 6, "rock", timestamp=3)])
        dataset.with_holdout(0.5).to_arena(tmp_path / "forms.arena")
        mapped = Dataset.from_arena(tmp_path / "forms.arena")
        split = dataset.with_holdout(0.5)
        stores = [dataset.tagging, split.tagging, split.holdout,
                  mapped.tagging, mapped.holdout]
        assert {type(store) for store in stores} == {TaggingStore}

    def test_duplicate_triples_keep_their_first_occurrence(self, small_graph):
        dataset = Dataset.build(small_graph, [
            TaggingAction(1, 7, "x", timestamp=5),
            TaggingAction(2, 7, "x", timestamp=6),
            TaggingAction(1, 7, "x", timestamp=1),
        ])
        assert dataset.tagging.actions() == [
            TaggingAction(1, 7, "x", timestamp=5),
            TaggingAction(2, 7, "x", timestamp=6)]

    def test_action_with_unknown_user_rejected(self, small_graph):
        with pytest.raises(StorageError):
            Dataset.build(small_graph, [TaggingAction(17, 1, "x")])

    def test_describe_mentions_name_and_sizes(self, hand_dataset):
        text = hand_dataset.describe()
        assert "hand" in text
        assert "6 users" in text

    def test_tags_and_active_users(self, hand_dataset):
        assert hand_dataset.tags() == ["jazz", "rock", "vinyl"]
        assert hand_dataset.active_users() == [0, 1, 2, 3, 4, 5]


class TestHoldout:
    def test_with_holdout_moves_actions_out_of_index(self, hand_dataset):
        split = hand_dataset.with_holdout(0.5)
        assert split.holdout is not None
        assert split.num_actions + len(split.holdout) == hand_dataset.num_actions
        assert split.num_actions < hand_dataset.num_actions

    def test_holdout_dataset_keeps_graph_and_name(self, hand_dataset):
        split = hand_dataset.with_holdout(0.3)
        assert split.graph is hand_dataset.graph
        assert split.name == hand_dataset.name


class TestStatistics:
    def test_dataset_statistics(self, hand_dataset):
        stats = compute_dataset_statistics(hand_dataset)
        assert stats.num_users == 6
        assert stats.num_items == 5
        assert stats.num_tags == 3
        assert stats.num_actions == 11
        assert stats.max_tag_frequency == hand_dataset.inverted_index.max_frequency("jazz")
        assert stats.index_memory_bytes > 0
        assert stats.avg_actions_per_user == pytest.approx(11 / 6)

    def test_statistics_to_dict(self, hand_dataset):
        row = compute_dataset_statistics(hand_dataset).to_dict()
        assert row["name"] == "hand"

    def test_graph_statistics_row(self, hand_dataset):
        row = graph_statistics_row(hand_dataset)
        assert row["num_users"] == 6
        assert row["name"] == "hand"
