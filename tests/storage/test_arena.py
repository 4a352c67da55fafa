"""Round-trip tests for the memory-mapped index arena."""

import numpy as np
import pytest

from repro import SocialSearchEngine
from repro.config import WorkloadConfig
from repro.errors import PersistenceError
from repro.eval.quality import result_signature
from repro.storage import Dataset, DurableStore, build_arena
from repro.storage import arena as arena_module
from repro.storage.arena import Arena, write_arena
from repro.workload import generate_workload
from repro.workload.datasets import tiny_dataset


@pytest.fixture(scope="module")
def corpus():
    return tiny_dataset(holdout_fraction=0.2)


@pytest.fixture(scope="module")
def arena_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("arena") / "tiny.arena"
    build_arena(corpus, path)
    return path


@pytest.fixture()
def mapped(arena_path):
    return Dataset.from_arena(arena_path)


def _oracle(dataset):
    """The dict store oracle holding ``dataset``'s actions."""
    from tagging_oracle import TaggingStore

    store = TaggingStore()
    store.add_many(dataset.tagging.actions())
    return store


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

    def test_damaged_header_raises_naming_the_file(self, damaged_arena):
        with pytest.raises(PersistenceError) as excinfo:
            Arena.open(damaged_arena)
        assert str(damaged_arena) in str(excinfo.value)

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


    def test_a_new_arena_carries_no_shard_sections(self, arena_path):
        # The header keeps its "materialized": null entry, so files stay
        # byte-identical to those written while shards could be attached.
        arena = Arena.open(arena_path)
        assert "materialized" in arena.meta
        assert arena.meta["materialized"] is None
        assert not [name for name in arena.arrays
                    if name.startswith("materialized.")]

    def test_arrays_are_read_only_plain_ndarray_views(self, arena_path):
        arena = Arena.open(arena_path)
        assert arena.arrays
        assert all(type(array) is np.ndarray for array in arena.arrays.values())
        for array in arena.arrays.values():
            if array.size:
                with pytest.raises(ValueError):
                    array.reshape(-1)[0] = 0

    def test_rebuild_from_an_attached_dataset_releases_no_source_pages(
            self, mapped, tmp_path, monkeypatch):
        """A checkpoint writes a new arena from the live, attached dataset;
        none of the arrays it hands to the page-release step may carry the
        source file's mapping, or ``madvise`` would drop its pages."""
        offered = []
        release = arena_module._release_mapped_pages

        def spy(array):
            offered.append(array)
            release(array)

        monkeypatch.setattr(arena_module, "_release_mapped_pages", spy)
        build_arena(mapped, tmp_path / "again.arena")
        assert offered
        assert all(getattr(array, "_mmap", None) is None for array in offered)


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

    def test_endorser_bundles_answer_like_the_oracle(self, corpus, mapped):
        oracle = _oracle(corpus)
        for tag in corpus.tags()[:5]:
            bundle = mapped.endorser_index.for_tag(tag)
            assert bundle.item_ids.tolist() == sorted(oracle.items_for_tag(tag))
            for item_id in sorted(oracle.items_for_tag(tag))[:5]:
                assert bundle.taggers_of(item_id).tolist() \
                    == list(oracle.taggers_sorted(item_id, tag))
                assert mapped.tagging.contains(
                    oracle.taggers_sorted(item_id, tag)[0], item_id, tag)

    def test_random_access_frequency(self, corpus, mapped):
        from index_oracle import OracleInvertedIndex

        store = _oracle(corpus)
        oracle = OracleInvertedIndex.build(store)
        tag = corpus.tags()[0]
        for item_id in list(store.items_for_tag(tag))[:5]:
            assert mapped.inverted_index.frequency(item_id, tag) \
                == corpus.inverted_index.frequency(item_id, tag) \
                == oracle.frequency(item_id, tag)
        assert mapped.inverted_index.frequency(999999, tag) == 0

    def test_social_index_round_trip(self, corpus, mapped):
        from index_oracle import OracleSocialIndex

        oracle = OracleSocialIndex.build(_oracle(corpus))
        for user in oracle.users():
            for tag in oracle.tags_for(user):
                assert mapped.social_index.items_for(user, tag) \
                    == corpus.social_index.items_for(user, tag) \
                    == oracle.items_for(user, tag)
        assert mapped.social_index.num_entries() \
            == corpus.social_index.num_entries() == oracle.num_entries()

    def test_index_footprint_matches_the_built_dataset(self, corpus, mapped):
        # Same arrays, same bytes: the reported footprint depends on neither
        # the dataset form nor on which lookups ran before.
        mapped.social_index.items_for(0, corpus.tags()[0])
        assert mapped.social_index.memory_bytes() \
            == corpus.social_index.memory_bytes()
        assert mapped.inverted_index.memory_bytes() \
            == corpus.inverted_index.memory_bytes()

    def test_holdout_preserved(self, corpus, mapped):
        assert mapped.holdout is not None
        assert sorted(a.to_dict().items() for a in mapped.holdout.actions()) \
            == sorted(a.to_dict().items() for a in corpus.holdout.actions())

    def test_per_user_reads_match_the_oracle(self, corpus, mapped):
        oracle = _oracle(corpus)
        assert mapped.tagging.users() == oracle.users()
        for user in oracle.users()[:10]:
            assert mapped.tagging.tags_for_user(user) == oracle.tags_for_user(user)
            assert mapped.tagging.items_for_user(user) == oracle.items_for_user(user)
        for got, want in zip(mapped.tagging.action_histograms(corpus.num_users),
                             oracle.action_histograms(corpus.num_users)):
            np.testing.assert_array_equal(got, want)


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

    The mapped arrays describe the pre-update corpus; new actions land in
    the tagging store's tail and in merged endorser bundles, so they are
    visible immediately while untouched tags keep their mapped arrays.
    """

    def test_added_action_survives_index_rebuild(self, arena_path):
        from repro.storage import DatasetUpdater, TaggingAction

        dataset = Dataset.from_arena(arena_path)
        tag = dataset.tags()[0]
        before = dataset.num_actions
        updater = DatasetUpdater(dataset)
        updater.add_actions([TaggingAction(user_id=2, item_id=9999, tag=tag)])
        assert dataset.num_actions == before + 1
        assert dataset.tagging.contains(2, 9999, tag)
        assert dataset.endorser_index.for_tag(tag).taggers_of(9999).tolist() \
            == [2]
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


class TestOlderArenas:
    """Arenas written while the file could also carry proximity shards.

    Earlier builds could add per-cluster proximity rows (the
    ``materialized.*`` sections, described in the header's
    ``"materialized"`` entry), per-cluster bound vectors and a landmark
    sketch.  Nothing reads them now; such a file must keep attaching, answer
    exactly like the current layout and lose the sections at the next
    checkpoint.
    """

    @pytest.fixture()
    def older(self, corpus, arena_path, tmp_path):
        current = Arena.open(arena_path)
        num_users = corpus.num_users
        users = np.arange(num_users, dtype=np.int64)
        arrays = {name: np.array(array)
                  for name, array in current.arrays.items()}
        # One cluster holding every seeker, one row entry per seeker.  The
        # rows are deliberately wrong (each seeker "close" to the next id),
        # so an answer served from them would differ from the graph's.
        arrays.update({
            "materialized.labels": np.zeros(num_users, dtype=np.int64),
            "materialized.cluster_ids": np.zeros(1, dtype=np.int64),
            "materialized.member_offsets": np.array([0, num_users],
                                                    dtype=np.int64),
            "materialized.members": users,
            "materialized.row_offsets": np.arange(num_users + 1,
                                                  dtype=np.int64),
            "materialized.row_user_ids": (users + 1) % num_users,
            "materialized.row_values": np.ones(num_users),
            "materialized.bounds": np.ones(num_users),
            "landmark.ids": np.arange(2, dtype=np.int64),
            "landmark.distances": np.zeros((2, num_users)),
            "landmark.hops": np.zeros((2, num_users), dtype=np.int64),
        })
        meta = dict(current.meta)
        meta["materialized"] = {"measure": "shortest-path", "num_clusters": 1,
                                "num_rows": num_users,
                                "num_entries": num_users}
        meta["landmark"] = {"measure": "landmark", "num_landmarks": 2,
                            "strategy": "degree", "seed": 0, "decay": 0.5}
        return write_arena(tmp_path / "older.arena", meta, arrays)

    @staticmethod
    def _answers(dataset, corpus):
        engine = SocialSearchEngine(dataset)
        mix = generate_workload(corpus, WorkloadConfig(num_queries=8, k=5,
                                                       seed=3))
        return [result_signature(engine.run(query, algorithm=algorithm))
                for algorithm in ("exact", "social-first") for query in mix]

    def test_opens_and_answers_like_the_current_layout(self, corpus,
                                                       arena_path, older):
        assert "materialized.row_values" in Arena.open(older)
        dataset = Dataset.from_arena(older)
        assert dataset.graph == corpus.graph
        assert self._answers(dataset, corpus) \
            == self._answers(Dataset.from_arena(arena_path), corpus)

    def test_durable_store_opens_it_and_the_checkpoint_drops_the_sections(
            self, corpus, arena_path, older, tmp_path):
        directory = tmp_path / "store"
        DurableStore.initialise(corpus, directory).close()
        (directory / "gen-0.arena").write_bytes(older.read_bytes())

        store = DurableStore.open(directory)
        try:
            assert self._answers(store.dataset, corpus) \
                == self._answers(Dataset.from_arena(arena_path), corpus)
            assert store.checkpoint(force=True)["published"]
            published = directory / str(store.manifest["arena"])
        finally:
            store.close()
        rewritten = Arena.open(published)
        assert rewritten.meta["materialized"] is None
        assert "landmark" not in rewritten.meta
        assert not [name for name in rewritten.arrays
                    if name.startswith(("materialized.", "landmark."))]
        plain = build_arena(Dataset.from_arena(arena_path),
                            tmp_path / "plain.arena")
        assert published.read_bytes() == plain.read_bytes()


class TestDeltaOverlay:
    """The write path: the tail, compaction, and thread safety."""

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
        assert dataset.tagging.contains(2, 4242, tag)
        assert dataset.tagging.actions()[-1] == TaggingAction(2, 4242, tag)
        # The live bundle merges frozen taggers with tail taggers.
        bundle = dataset.endorser_index.for_tag(tag)
        item = int(bundle.item_ids[bundle.item_ids != 4242][0])
        frozen = bundle.taggers_of(item).tolist()
        newcomer = min(set(range(dataset.num_users)) - set(frozen))
        updater.add_actions([TaggingAction(user_id=newcomer, item_id=item,
                                           tag=tag)])
        assert dataset.tagging.delta_size == 2
        merged = dataset.endorser_index.for_tag(tag).taggers_of(item).tolist()
        assert merged == sorted(set(frozen) | {newcomer})

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
            "actions": dataset.tagging.actions(),
            "histograms": [np.asarray(part).tolist() for part in
                           dataset.tagging.action_histograms(dataset.num_users)],
            "contains": dataset.tagging.contains(1, 8000, tag),
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
            "actions": dataset.tagging.actions(),
            "histograms": [np.asarray(part).tolist() for part in
                           dataset.tagging.action_histograms(dataset.num_users)],
            "contains": dataset.tagging.contains(1, 8000, tag),
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
        # tail against it would lose the actions.
        dataset.tagging.add(TaggingAction(user_id=1, item_id=31337, tag=tag))
        with pytest.raises(StorageError):
            dataset.tagging.compact()
        assert dataset.tagging.delta_size == 1

    def test_concurrent_reads_during_mutation(self, arena_path):
        """S2 regression: readers racing the first add see consistent state."""
        import threading

        from repro.storage import DatasetUpdater, TaggingAction

        dataset = Dataset.from_arena(arena_path)
        updater = DatasetUpdater(dataset)
        tag = dataset.tags()[0]
        item = int(dataset.endorser_index.for_tag(tag).item_ids[0])
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
                    actions = dataset.tagging.actions()
                    assert base_len <= len(actions) <= base_len + 64
                    assert len(set(actions)) == len(actions)
                    assert dataset.tagging.items_for_user_tag(0, tag) \
                        <= set(dataset.social_index.items_for(0, tag))
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

    def test_concurrent_per_user_reads_match_the_oracle(self, arena_path):
        """Four threads reading the columns at once see the oracle's answers."""
        import threading

        dataset = Dataset.from_arena(arena_path)
        oracle = _oracle(dataset)
        expected = [oracle.actions(), oracle.users(), oracle.tags_for_user(0)]
        results = []

        def cold_reader():
            results.append([dataset.tagging.actions(), dataset.tagging.users(),
                            dataset.tagging.tags_for_user(0)])

        threads = [threading.Thread(target=cold_reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == [expected] * 4
