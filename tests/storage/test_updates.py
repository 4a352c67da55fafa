"""Tests for incremental dataset maintenance."""

import pytest

from repro.errors import StorageError
from repro.storage import (
    Dataset,
    DatasetUpdater,
    Item,
    TaggingAction,
    replay_trace,
)
from repro.core import SocialSearchEngine, Query
from repro.workload import tiny_dataset


@pytest.fixture()
def live_dataset(small_graph):
    actions = [
        TaggingAction(1, 100, "jazz", timestamp=1),
        TaggingAction(2, 100, "jazz", timestamp=2),
        TaggingAction(3, 101, "rock", timestamp=3),
    ]
    return Dataset.build(small_graph, actions, name="live")


class TestAddActions:
    def test_new_action_updates_indexes(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        summary = updater.add_actions([TaggingAction(4, 100, "jazz", timestamp=9)])
        assert summary.actions_added == 1
        assert live_dataset.inverted_index.frequency(100, "jazz") == 3
        assert 100 in live_dataset.social_index.items_for(4, "jazz")
        assert summary.tags_touched == {"jazz"}

    def test_duplicate_action_ignored(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        summary = updater.add_actions([TaggingAction(1, 100, "jazz", timestamp=50)])
        assert summary.actions_added == 0
        assert summary.actions_ignored == 1
        assert live_dataset.inverted_index.frequency(100, "jazz") == 2

    def test_new_tag_creates_posting_list(self, live_dataset):
        DatasetUpdater(live_dataset).add_actions(
            [TaggingAction(2, 102, "vinyl", timestamp=8)]
        )
        assert "vinyl" in live_dataset.inverted_index
        assert live_dataset.inverted_index.max_frequency("vinyl") == 1

    def test_unknown_user_rejected(self, live_dataset):
        with pytest.raises(StorageError):
            DatasetUpdater(live_dataset).add_actions([TaggingAction(42, 1, "x")])

    def test_new_item_registered_in_catalogue(self, live_dataset):
        DatasetUpdater(live_dataset).add_actions([TaggingAction(1, 777, "jazz")])
        assert 777 in live_dataset.items


class TestGraphUpdates:
    def test_add_friendship_rebuilds_graph(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        assert not live_dataset.graph.has_edge(2, 3)
        summary = updater.add_friendships([(2, 3, 0.9)])
        assert summary.edges_added == 1
        assert live_dataset.graph.has_edge(2, 3)

    def test_duplicate_friendship_not_counted(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        summary = updater.add_friendships([(0, 1, 0.9)])
        assert summary.edges_added == 0

    def test_add_users_extends_domain(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        before = live_dataset.num_users
        summary = updater.add_users(3)
        assert summary.users_added == 3
        assert live_dataset.num_users == before + 3
        # The pre-existing edges survive the rebuild.
        assert live_dataset.graph.has_edge(0, 1)

    def test_add_negative_users_rejected(self, live_dataset):
        with pytest.raises(StorageError):
            DatasetUpdater(live_dataset).add_users(-1)

    def test_add_items(self, live_dataset):
        summary = DatasetUpdater(live_dataset).add_items(
            [Item(item_id=500, title="new"), Item(item_id=100, title="item-100")]
        )
        assert summary.items_added == 1
        assert 500 in live_dataset.items


class TestApplyAndReplay:
    def test_apply_mixed_batch_in_order(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        new_user = live_dataset.num_users
        summary = updater.apply(
            new_users=1,
            friendships=[(new_user, 0, 0.8)],
            actions=[TaggingAction(new_user, 100, "jazz", timestamp=99)],
            new_items=[Item(item_id=900, title="fresh")],
        )
        assert summary.users_added == 1
        assert summary.edges_added == 1
        assert summary.actions_added == 1
        assert summary.items_added == 1
        assert live_dataset.inverted_index.frequency(100, "jazz") == 3

    def test_updates_visible_to_queries(self, live_dataset):
        engine = SocialSearchEngine(live_dataset)
        query = Query(seeker=0, tags=("jazz",), k=3)
        before = engine.run(query, algorithm="exact")
        DatasetUpdater(live_dataset).add_actions(
            [TaggingAction(1, 555, "jazz", timestamp=77),
             TaggingAction(3, 555, "jazz", timestamp=78)]
        )
        after = engine.run(query, algorithm="exact")
        assert 555 in after.item_ids
        assert 555 not in before.item_ids

    def test_replay_trace_batches(self):
        dataset = tiny_dataset()
        base_actions = dataset.num_actions
        new_actions = [
            TaggingAction(user_id=index % dataset.num_users, item_id=1000 + index,
                          tag="tag-000", timestamp=10_000 + index)
            for index in range(25)
        ]
        summaries = replay_trace(dataset, new_actions, batch_size=10)
        assert len(summaries) == 3
        assert sum(summary.actions_added for summary in summaries) == 25
        assert dataset.num_actions == base_actions + 25

    def test_replay_invalid_batch_size(self):
        with pytest.raises(StorageError):
            replay_trace(tiny_dataset(), [], batch_size=0)

    def test_summary_to_dict(self, live_dataset):
        summary = DatasetUpdater(live_dataset).add_actions(
            [TaggingAction(1, 888, "rock", timestamp=5)]
        )
        data = summary.to_dict()
        assert data["actions_added"] == 1
        assert data["tags_touched"] == ["rock"]


class TestObservers:
    def test_subscriber_notified_per_public_call(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        observed = []
        updater.subscribe(observed.append)
        updater.add_actions([TaggingAction(4, 300, "jazz", timestamp=20)])
        updater.add_users(1)
        assert len(observed) == 2
        assert observed[0].tags_touched == {"jazz"}
        assert observed[1].users_added == 1

    def test_apply_notifies_once_with_merged_summary(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        observed = []
        updater.subscribe(observed.append)
        updater.apply(
            actions=[TaggingAction(4, 300, "jazz", timestamp=20)],
            new_users=1,
        )
        assert len(observed) == 1
        assert observed[0].actions_added == 1
        assert observed[0].users_added == 1

    def test_no_notification_when_nothing_changed(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        observed = []
        updater.subscribe(observed.append)
        # Duplicate action: ignored, dataset unchanged.
        updater.add_actions([TaggingAction(1, 100, "jazz", timestamp=99)])
        updater.apply()
        assert observed == []

    def test_unsubscribe_stops_notifications(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        observed = []
        updater.subscribe(observed.append)
        updater.unsubscribe(observed.append)
        updater.add_users(1)
        assert observed == []
        updater.unsubscribe(observed.append)  # double-unsubscribe is a no-op

    def test_summary_change_flags(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        tagging = updater.add_actions([TaggingAction(4, 300, "jazz", timestamp=20)])
        assert tagging.changed and not tagging.graph_rebuilt
        growth = updater.add_users(1)
        assert growth.changed and growth.graph_rebuilt


class TestIncrementalMaintenance:
    def test_indexes_maintained_in_place(self, live_dataset):
        """Updates refresh the touched tags, not rebuild whole indexes."""
        inverted = live_dataset.inverted_index
        social = live_dataset.social_index
        endorsers = live_dataset.endorser_index
        jazz_before = inverted.arrays("jazz")
        rock_before = inverted.arrays("rock")
        DatasetUpdater(live_dataset).add_actions(
            [TaggingAction(4, 100, "jazz", timestamp=9)])
        # Same index objects, refreshed in place...
        assert live_dataset.inverted_index is inverted
        assert live_dataset.social_index is social
        assert live_dataset.endorser_index is endorsers
        # ...with only the touched tag's arrays replaced.
        assert inverted.arrays("jazz") is not jazz_before
        assert inverted.arrays("rock") is rock_before

    def test_merged_entries_match_full_rebuild(self, live_dataset):
        from index_oracle import OracleInvertedIndex, OracleSocialIndex
        from repro.storage import EndorserIndex

        from tagging_oracle import TaggingStore

        DatasetUpdater(live_dataset).add_actions([
            TaggingAction(4, 100, "jazz", timestamp=9),
            TaggingAction(0, 500, "jazz", timestamp=10),
            TaggingAction(2, 500, "fresh", timestamp=11),
        ])
        oracle = TaggingStore()
        oracle.add_many(live_dataset.tagging.actions())
        rebuilt = OracleInvertedIndex.build(oracle)
        for tag in live_dataset.tagging.tags():
            ours = live_dataset.inverted_index.arrays(tag)
            assert ours.item_ids.tolist() == rebuilt.item_ids(tag)
            assert ours.frequencies.tolist() == rebuilt.frequencies(tag)
            assert live_dataset.inverted_index.max_frequency(tag) \
                == rebuilt.max_frequency(tag)
        tags = live_dataset.tagging.tags()
        columns = live_dataset.tagging.action_arrays(
            {tag: index for index, tag in enumerate(tags)})
        rebuilt_endorsers = EndorserIndex.build(
            tags, columns["tag_ids"], columns["item_ids"], columns["user_ids"])
        for tag in live_dataset.tagging.tags():
            ours = live_dataset.endorser_index.for_tag(tag)
            theirs = rebuilt_endorsers.for_tag(tag)
            assert ours.item_ids.tolist() == theirs.item_ids.tolist()
            assert ours.offsets.tolist() == theirs.offsets.tolist()
            assert ours.taggers.tolist() == theirs.taggers.tolist()
        rebuilt_social = OracleSocialIndex.build(oracle)
        for user in rebuilt_social.users():
            profile = {tag: live_dataset.social_index.items_for(user, tag)
                       for tag in live_dataset.tagging.tags()}
            assert {tag: items for tag, items in profile.items() if items} \
                == rebuilt_social.profile(user)

    def test_in_memory_dataset_pends_its_tail(self, live_dataset):
        updater = DatasetUpdater(live_dataset)
        updater.add_actions([TaggingAction(4, 100, "jazz", timestamp=9)])
        assert updater.pending_delta() == 1
        assert live_dataset.social_index.overlay_size == 1
        assert updater.compact() == 1
        assert updater.epoch == 1
        assert updater.pending_delta() == 0
        assert live_dataset.social_index.overlay_size == 0
        assert live_dataset.social_index.items_for(4, "jazz") == (100,)
        assert live_dataset.tagging.contains(4, 100, "jazz")

    @pytest.mark.parametrize("form", ["in-memory", "arena"])
    def test_inline_compact_threshold(self, tmp_path, form):
        live = tiny_dataset()
        if form == "arena":
            live.to_arena(tmp_path / "inline.arena")
            live = Dataset.from_arena(tmp_path / "inline.arena")
        updater = DatasetUpdater(live, compact_threshold=4)
        tag = live.tags()[0]
        for index in range(6):
            updater.add_actions([TaggingAction(
                user_id=index % live.num_users, item_id=70_000 + index,
                tag=tag, timestamp=index)])
            # The fourth action crossed the threshold and compacted inline.
            assert updater.epoch == (1 if index >= 3 else 0)
            if index == 3:
                assert live.social_index.overlay_size == 0
        assert updater.pending_delta() == 2


class TestCompactionFaultAtomicity:
    """Fault-injected regression: a failed compaction commits nothing.

    Compaction is staged (all fallible work) and then committed (pure
    attribute swaps); a crash between the two must leave the old epoch,
    the old overlays and identical merged reads behind — the exact window
    that used to be able to publish a half-folded store.
    """

    def _arena_backed(self, tmp_path):
        dataset = tiny_dataset()
        path = tmp_path / "atomic.arena"
        dataset.to_arena(path)
        live = Dataset.from_arena(path)
        updater = DatasetUpdater(live)
        tag = live.tags()[0]
        updater.add_actions([
            TaggingAction(user_id=index % live.num_users,
                          item_id=80_000 + index, tag=tag,
                          timestamp=index)
            for index in range(5)
        ])
        return live, updater, tag

    def _merged_reads(self, live, tag):
        arrays = live.inverted_index.arrays(tag)
        return (arrays.item_ids.tolist(), arrays.frequencies.tolist(),
                live.inverted_index.max_frequency(tag))

    @pytest.mark.parametrize("point", ["compact.stage", "compact.commit"])
    def test_crash_mid_compaction_commits_nothing(self, tmp_path, point):
        from repro.obs.faults import InjectedCrash, armed

        live, updater, tag = self._arena_backed(tmp_path)
        before = self._merged_reads(live, tag)
        pending = updater.pending_delta()
        assert pending == 5

        with armed(point):
            with pytest.raises(InjectedCrash):
                updater.compact()

        # Nothing committed: old epoch, overlays still pending, reads same.
        assert updater.epoch == 0
        assert updater.pending_delta() == pending
        assert self._merged_reads(live, tag) == before

        # The survivor path: the very next compaction folds cleanly.
        assert updater.compact() == pending
        assert updater.epoch == 1
        assert updater.pending_delta() == 0
        assert self._merged_reads(live, tag) == before
