"""Round-trip tests for the memory-mapped index arena."""

import numpy as np
import pytest

from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, WorkloadConfig
from repro.errors import PersistenceError
from repro.proximity import MaterializedProximity
from repro.proximity.pagerank import PersonalizedPageRankProximity
from repro.storage import Dataset, build_arena, load_shards
from repro.storage.arena import Arena, attach_shards, write_arena
from repro.workload import generate_workload
from repro.workload.datasets import tiny_dataset


@pytest.fixture(scope="module")
def corpus():
    return tiny_dataset(holdout_fraction=0.2)


@pytest.fixture(scope="module")
def arena_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("arena") / "tiny.arena"
    inner = PersonalizedPageRankProximity(corpus.graph, ProximityConfig(measure="ppr"))
    materialized = MaterializedProximity(inner)
    materialized.build()
    build_arena(corpus, path, proximity=materialized)
    return path


@pytest.fixture()
def mapped(arena_path):
    return Dataset.from_arena(arena_path)


class TestFormat:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.arena"
        path.write_bytes(b"not an arena at all" * 4)
        with pytest.raises(PersistenceError):
            Arena.open(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.arena"
        path.write_bytes(b"RPR")
        with pytest.raises(PersistenceError):
            Arena.open(path)

    def test_unknown_array_name_raises(self, arena_path):
        arena = Arena.open(arena_path)
        with pytest.raises(PersistenceError):
            arena.array("no/such/array")

    def test_write_and_reopen_raw_arrays(self, tmp_path):
        path = tmp_path / "raw.arena"
        payload = {
            "small": np.arange(7, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 13),
            "empty": np.zeros(0, dtype=np.int64),
        }
        write_arena(path, {"hello": "world"}, payload)
        arena = Arena.open(path)
        assert arena.meta["hello"] == "world"
        for name, array in payload.items():
            np.testing.assert_array_equal(arena.array(name), array)


class TestRoundTrip:
    def test_structural_equality(self, corpus, mapped):
        assert mapped.graph == corpus.graph
        assert mapped.tags() == corpus.tags()
        assert mapped.num_actions == corpus.num_actions
        assert len(mapped.items) == len(corpus.items)
        assert len(mapped.users) == len(corpus.users)
        for tag in corpus.tags():
            ours = corpus.inverted_index.arrays(tag)
            theirs = mapped.inverted_index.arrays(tag)
            np.testing.assert_array_equal(ours.item_ids, theirs.item_ids)
            np.testing.assert_array_equal(ours.frequencies, theirs.frequencies)
            assert corpus.inverted_index.max_frequency(tag) \
                == mapped.inverted_index.max_frequency(tag)

    def test_endorser_index_round_trip(self, corpus, mapped):
        for tag in corpus.tags():
            ours = corpus.endorser_index.for_tag(tag)
            theirs = mapped.endorser_index.for_tag(tag)
            if ours is None:
                assert theirs is None
                continue
            np.testing.assert_array_equal(ours.item_ids, theirs.item_ids)
            np.testing.assert_array_equal(ours.offsets, theirs.offsets)
            np.testing.assert_array_equal(ours.taggers, theirs.taggers)

    def test_tagging_hot_paths(self, corpus, mapped):
        for tag in corpus.tags()[:5]:
            assert mapped.tagging.items_for_tag(tag) == corpus.tagging.items_for_tag(tag)
            for item_id in sorted(corpus.tagging.items_for_tag(tag))[:5]:
                assert list(mapped.tagging.taggers_sorted(item_id, tag)) \
                    == list(corpus.tagging.taggers_sorted(item_id, tag))
                assert mapped.tagging.tag_frequency(item_id, tag) \
                    == corpus.tagging.tag_frequency(item_id, tag)

    def test_random_access_frequency(self, corpus, mapped):
        tag = corpus.tags()[0]
        for item_id in list(corpus.tagging.items_for_tag(tag))[:5]:
            assert mapped.inverted_index.frequency(item_id, tag) \
                == corpus.inverted_index.frequency(item_id, tag)
        assert mapped.inverted_index.frequency(999999, tag) == 0

    def test_social_index_round_trip(self, corpus, mapped):
        for user in corpus.social_index.users():
            for tag in corpus.social_index.tags_for(user):
                assert mapped.social_index.items_for(user, tag) \
                    == corpus.social_index.items_for(user, tag)

    def test_holdout_preserved(self, corpus, mapped):
        assert mapped.holdout is not None
        assert sorted(a.to_dict().items() for a in mapped.holdout.actions()) \
            == sorted(a.to_dict().items() for a in corpus.holdout.actions())

    def test_cold_paths_materialise_lazily(self, corpus, mapped):
        # users()/tags_for_user trigger the replay fallback and must agree.
        assert mapped.tagging.users() == corpus.tagging.users()
        user = corpus.tagging.users()[0]
        assert mapped.tagging.tags_for_user(user) == corpus.tagging.tags_for_user(user)
        assert mapped.tagging.tag_popularity() == corpus.tagging.tag_popularity()


class TestQueryEquivalence:
    """The Figure-6 query mix must be answered identically from the arena."""

    @pytest.fixture(scope="class")
    def mix(self, corpus):
        return generate_workload(corpus, WorkloadConfig(num_queries=12, k=5, seed=3))

    @pytest.mark.parametrize("algorithm", ["exact", "social-first", "ta", "nra"])
    def test_rankings_and_accounting_identical(self, corpus, mapped, mix, algorithm):
        reference = SocialSearchEngine(corpus)
        arena_engine = SocialSearchEngine(mapped)
        for query in mix:
            want = reference.run(query, algorithm=algorithm)
            got = arena_engine.run(query, algorithm=algorithm)
            assert [item.item_id for item in want.items] \
                == [item.item_id for item in got.items]
            assert [item.score for item in want.items] \
                == [item.score for item in got.items]
            assert want.accounting.to_dict() == got.accounting.to_dict()

    def test_workload_generation_identical(self, corpus, mapped):
        config = WorkloadConfig(num_queries=6, k=4, seed=9)
        ours = [query.to_dict() for query in generate_workload(corpus, config)]
        theirs = [query.to_dict() for query in generate_workload(mapped, config)]
        assert ours == theirs


class TestLiveUpdates:
    """Regression: live updates on an arena-backed dataset must not be lost.

    The mapped arrays describe the pre-update corpus; mutations land in the
    delta overlay and every read merges it with the frozen arrays, so the
    new actions are visible immediately without retiring the fast path.
    """

    def test_added_action_survives_index_rebuild(self, arena_path):
        from repro.storage import DatasetUpdater, TaggingAction

        dataset = Dataset.from_arena(arena_path)
        tag = dataset.tags()[0]
        before = dataset.num_actions
        updater = DatasetUpdater(dataset)
        updater.add_actions([TaggingAction(user_id=2, item_id=9999, tag=tag)])
        assert dataset.num_actions == before + 1
        assert 9999 in dataset.tagging.items_for_tag(tag)
        assert dataset.tagging.tag_frequency(9999, tag) == 1
        assert list(dataset.tagging.taggers_sorted(9999, tag)) == [2]
        # The rebuilt derived indexes see the new action too.
        assert dataset.inverted_index.frequency(9999, tag) == 1
        assert 9999 in dataset.social_index.items_for(2, tag)
        # And the pre-existing corpus is still fully there.
        engine = SocialSearchEngine(dataset)
        result = engine.search(seeker=1, tags=[tag], k=5)
        assert result.items

    def test_new_tag_via_update_is_queryable(self, arena_path):
        from repro.storage import DatasetUpdater, TaggingAction

        dataset = Dataset.from_arena(arena_path)
        updater = DatasetUpdater(dataset)
        updater.add_actions([TaggingAction(user_id=1, item_id=7777,
                                           tag="brand-new-tag")])
        assert "brand-new-tag" in dataset.tags()
        engine = SocialSearchEngine(dataset)
        result = engine.search(seeker=2, tags=["brand-new-tag"], k=3)
        assert [item.item_id for item in result.items] == [7777]


class TestShards:
    def test_shards_round_trip(self, corpus, arena_path):
        loaded = load_shards(arena_path)
        assert loaded is not None
        labels, shards = loaded
        assert len(labels) == corpus.num_users
        assert sum(len(shard) for shard in shards) == corpus.num_users

    def test_attach_shards_serves_identical_vectors(self, corpus, arena_path):
        inner = PersonalizedPageRankProximity(corpus.graph,
                                              ProximityConfig(measure="ppr"))
        fresh = MaterializedProximity(
            PersonalizedPageRankProximity(corpus.graph,
                                          ProximityConfig(measure="ppr")))
        assert attach_shards(fresh, arena_path)
        for seeker in range(0, corpus.num_users, 5):
            np.testing.assert_array_equal(fresh.vector_array(seeker),
                                          inner.vector_array(seeker))
        assert fresh.statistics.refinements == 0

    def test_attach_shards_rejects_measure_mismatch(self, corpus, arena_path):
        from repro.proximity.shortest_path import ShortestPathProximity

        mismatched = MaterializedProximity(
            ShortestPathProximity(corpus.graph,
                                  ProximityConfig(measure="shortest-path")))
        with pytest.raises(PersistenceError):
            attach_shards(mismatched, arena_path)
        assert not mismatched.built

    def test_arena_without_shards(self, corpus, tmp_path):
        path = tmp_path / "plain.arena"
        build_arena(corpus, path)
        assert load_shards(path) is None
        engine_dataset = Dataset.from_arena(path)
        assert engine_dataset.graph == corpus.graph

    def test_older_arena_with_extra_sections_still_attaches(
            self, corpus, arena_path, tmp_path):
        # Earlier builds also wrote per-cluster bound vectors and a landmark
        # sketch section; nothing reads them now, but such a file must keep
        # loading and serving exactly what the current layout serves.
        current = Arena.open(arena_path)
        num_users = corpus.num_users
        num_clusters = int(current.array("materialized.cluster_ids").shape[0])
        arrays = {name: np.array(array)
                  for name, array in current.arrays.items()}
        arrays["materialized.bounds"] = np.ones(num_clusters * num_users)
        arrays["landmark.ids"] = np.arange(2, dtype=np.int64)
        arrays["landmark.distances"] = np.zeros((2, num_users))
        arrays["landmark.hops"] = np.zeros((2, num_users), dtype=np.int64)
        meta = dict(current.meta)
        meta["landmark"] = {"measure": "landmark", "num_landmarks": 2,
                            "strategy": "degree", "seed": 0, "decay": 0.5}
        older = write_arena(tmp_path / "older.arena", meta, arrays)

        fresh = MaterializedProximity(
            PersonalizedPageRankProximity(corpus.graph,
                                          ProximityConfig(measure="ppr")))
        assert attach_shards(fresh, older)
        inner = PersonalizedPageRankProximity(corpus.graph,
                                              ProximityConfig(measure="ppr"))
        for seeker in range(0, num_users, 5):
            np.testing.assert_array_equal(fresh.vector_array(seeker),
                                          inner.vector_array(seeker))
        assert fresh.statistics.refinements == 0
        assert Dataset.from_arena(older).graph == corpus.graph


class TestDeltaOverlay:
    """The write path: delta-merged reads, compaction, and thread safety."""

    def _live(self, arena_path):
        from repro.storage import DatasetUpdater

        dataset = Dataset.from_arena(arena_path)
        return dataset, DatasetUpdater(dataset)

    def test_updates_stay_in_the_delta(self, arena_path):
        from repro.storage import TaggingAction

        dataset, updater = self._live(arena_path)
        tag = dataset.tags()[0]
        before = len(dataset.tagging)
        updater.add_actions([TaggingAction(user_id=2, item_id=4242, tag=tag)])
        assert dataset.tagging.delta_size == 1
        assert len(dataset.tagging) == before + 1
        assert dataset.tagging.tag_frequency(4242, tag) == 1
        assert dataset.tagging.contains(2, 4242, tag)
        # A merged segment combines frozen taggers with delta taggers.
        item = sorted(dataset.tagging.items_for_tag(tag) - {4242})[0]
        frozen = list(dataset.tagging.taggers_sorted(item, tag))
        updater.add_actions([TaggingAction(user_id=0, item_id=item, tag=tag)])
        merged = list(dataset.tagging.taggers_sorted(item, tag))
        assert merged == sorted(set(frozen) | {0})

    def test_duplicate_of_frozen_action_rejected(self, arena_path):
        from repro.storage import TaggingAction

        dataset, updater = self._live(arena_path)
        existing = dataset.tagging.actions()[0]
        summary = updater.add_actions([TaggingAction(
            user_id=existing.user_id, item_id=existing.item_id,
            tag=existing.tag, timestamp=999_999)])
        assert summary.actions_added == 0
        assert summary.actions_ignored == 1
        assert dataset.tagging.delta_size == 0

    def test_compaction_folds_and_preserves_reads(self, arena_path):
        from repro.storage import TaggingAction

        dataset, updater = self._live(arena_path)
        tag = dataset.tags()[0]
        updater.add_actions([
            TaggingAction(user_id=1, item_id=8000 + i, tag=tag, timestamp=i)
            for i in range(5)
        ] + [TaggingAction(user_id=2, item_id=8000, tag="compaction-tag")])
        snapshot = {
            "len": len(dataset.tagging),
            "tags": dataset.tagging.tags(),
            "popularity": dataset.tagging.tag_popularity(),
            "freq": dataset.tagging.tag_frequency(8000, tag),
            "items": dataset.tagging.items_for_tag(tag),
            "profile": dataset.social_index.items_for(1, tag),
        }
        assert updater.pending_delta() == 6
        assert updater.compact() == 6
        assert updater.pending_delta() == 0
        assert updater.epoch == 1
        assert dataset.tagging.delta_size == 0
        assert dataset.social_index.overlay_size == 0
        assert snapshot == {
            "len": len(dataset.tagging),
            "tags": dataset.tagging.tags(),
            "popularity": dataset.tagging.tag_popularity(),
            "freq": dataset.tagging.tag_frequency(8000, tag),
            "items": dataset.tagging.items_for_tag(tag),
            "profile": dataset.social_index.items_for(1, tag),
        }
        # Nothing pending: a second compact is a no-op.
        assert updater.compact() == 0
        assert updater.epoch == 1

    def test_compact_refuses_inconsistent_endorsers(self, arena_path):
        from repro.errors import StorageError
        from repro.storage import TaggingAction

        dataset, _updater = self._live(arena_path)
        tag = dataset.tags()[0]
        # Bypassing the updater leaves the endorser index stale; folding the
        # delta against it would lose the actions.
        dataset.tagging.add(TaggingAction(user_id=1, item_id=31337, tag=tag))
        with pytest.raises(StorageError):
            dataset.tagging.compact(dataset.endorser_index)

    def test_concurrent_reads_during_mutation(self, arena_path):
        """S2 regression: readers racing the first add see consistent state."""
        import threading

        from repro.storage import DatasetUpdater, TaggingAction

        dataset = Dataset.from_arena(arena_path)
        updater = DatasetUpdater(dataset)
        tag = dataset.tags()[0]
        item = sorted(dataset.tagging.items_for_tag(tag))[0]
        base_frequency = dataset.tagging.tag_frequency(item, tag)
        base_len = len(dataset.tagging)
        errors = []
        observed_lengths = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    length = len(dataset.tagging)
                    assert base_len <= length <= base_len + 64
                    observed_lengths.append(length)
                    frequency = dataset.tagging.tag_frequency(item, tag)
                    assert frequency >= base_frequency
                    taggers = list(dataset.tagging.taggers_sorted(item, tag))
                    assert taggers == sorted(taggers)
                    dataset.tagging.contains(0, item, tag)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(64):
                updater.add_actions([TaggingAction(
                    user_id=i % dataset.num_users, item_id=60_000 + i,
                    tag=tag, timestamp=i)])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        assert len(dataset.tagging) == base_len + 64

    def test_concurrent_cold_path_materialisation(self, arena_path):
        """Two threads racing the replay must not duplicate actions."""
        import threading

        dataset = Dataset.from_arena(arena_path)
        expected = len(dataset.tagging)
        results = []

        def cold_reader():
            results.append(len(dataset.tagging.actions()))

        threads = [threading.Thread(target=cold_reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == [expected] * 4
