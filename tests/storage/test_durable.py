"""Tests for atomic arena generations + crash recovery (repro.storage.durable)."""

import pytest

from repro.config import DurabilityConfig, ProximityConfig, ServiceConfig
from repro.core import SocialSearchEngine, Query
from repro.errors import PersistenceError
from repro.obs.faults import InjectedCrash, armed, faults
from repro.service import QueryService
from repro.storage import TaggingAction
from repro.storage.durable import (
    MANIFEST_NAME,
    DurableStore,
    read_manifest,
    write_manifest,
)
from repro.storage.wal import scan_wal


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def store(hand_dataset, tmp_path):
    durable = DurableStore.initialise(hand_dataset, tmp_path / "db")
    yield durable
    durable.close()


def _query(dataset, seeker=0, tag="jazz", k=5):
    engine = SocialSearchEngine(dataset)
    return [(item.item_id, item.score)
            for item in engine.run(Query(seeker=seeker, tags=(tag,), k=k)).items]


class TestInitialise:
    def test_creates_generation_zero_layout(self, store):
        names = sorted(p.name for p in store.directory.iterdir())
        assert names == ["MANIFEST.json", "gen-0.arena", "wal-0.log"]
        manifest = read_manifest(store.directory)
        assert manifest["generation"] == 0
        assert manifest["epoch"] == 0

    def test_served_dataset_matches_the_source(self, hand_dataset, store):
        assert _query(store.dataset) == _query(hand_dataset)

    def test_refuses_to_overwrite_an_existing_store(self, hand_dataset, store):
        with pytest.raises(PersistenceError):
            DurableStore.initialise(hand_dataset, store.directory)

    def test_open_requires_a_manifest(self, tmp_path):
        with pytest.raises(PersistenceError):
            DurableStore.open(tmp_path / "empty")

    def test_manifest_validation(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text("{\"format\": \"other\"}")
        with pytest.raises(PersistenceError):
            read_manifest(directory)
        write_manifest(directory, {"format": "repro-durable"})
        with pytest.raises(PersistenceError):
            read_manifest(directory)


class TestRecovery:
    def test_acked_updates_survive_a_reopen(self, store):
        store.updater.add_actions(
            [TaggingAction(0, 100, "rock", timestamp=100)])
        store.updater.add_friendships([(2, 3, 0.9)])
        directory = store.directory
        del store  # simulated kill: the WAL handle is simply abandoned

        recovered = DurableStore.open(directory)
        try:
            report = recovered.recovery
            assert report.records_replayed == 2
            assert report.actions_replayed == 1
            assert report.edges_replayed == 1
            assert recovered.dataset.tagging.contains(0, 100, "rock")
            assert recovered.dataset.graph.edge_weight(2, 3) \
                == pytest.approx(0.9)
        finally:
            recovered.close()

    def test_epoch_restored_from_manifest_plus_markers(self, store):
        store.updater.add_actions(
            [TaggingAction(0, 100, "rock", timestamp=100)])
        store.updater.compact()  # appends an epoch marker to the live WAL
        directory = store.directory
        store.close()

        recovered = DurableStore.open(directory)
        try:
            assert recovered.recovery.epoch_markers == 1
            assert recovered.updater.epoch == 1
        finally:
            recovered.close()

    def test_torn_final_record_is_truncated_not_replayed(self, store):
        store.updater.add_actions(
            [TaggingAction(0, 100, "rock", timestamp=100)])
        # An in-flight record: on disk but torn mid-write, never acked.
        store.wal.append_actions([TaggingAction(5, 104, "vinyl",
                                                timestamp=200)])
        from repro.obs.faults import tear_final_record
        tear_final_record(store.wal.path, keep_bytes=4)
        directory = store.directory
        del store

        recovered = DurableStore.open(directory)
        try:
            assert recovered.recovery.torn_tail_bytes > 0
            assert recovered.recovery.records_replayed == 1
            assert recovered.dataset.tagging.contains(0, 100, "rock")
            assert not recovered.dataset.tagging.contains(5, 104, "vinyl")
            # The truncated segment accepts new appends cleanly.
            recovered.updater.add_actions(
                [TaggingAction(1, 102, "rock", timestamp=300)])
            assert not scan_wal(recovered.wal.path).torn
        finally:
            recovered.close()


class TestCheckpoint:
    def test_publishes_a_new_generation_and_rotates_the_wal(self, store):
        store.updater.add_actions(
            [TaggingAction(0, 100, "rock", timestamp=100)])
        before = _query(store.dataset, tag="rock")
        summary = store.checkpoint()
        assert summary["published"]
        assert store.generation == 1
        manifest = read_manifest(store.directory)
        assert manifest["arena"] == "gen-1.arena"
        assert manifest["wal"] == "wal-1.log"
        # The old generation was garbage-collected (keep_generations=0)...
        assert sorted(summary["gc_removed"]) == ["gen-0.arena", "wal-0.log"]
        # ...the live dataset kept serving identical answers...
        assert _query(store.dataset, tag="rock") == before
        # ...and a reopen replays nothing: the arena already has it all.
        directory = store.directory
        store.close()
        recovered = DurableStore.open(directory)
        try:
            assert recovered.recovery.records_replayed == 0
            assert recovered.dataset.tagging.contains(0, 100, "rock")
            assert _query(recovered.dataset, tag="rock") == before
        finally:
            recovered.close()

    def test_skips_when_nothing_changed(self, store):
        assert store.checkpoint() == {"published": False, "generation": 0,
                                      "folded": 0}
        assert store.checkpoint(force=True)["published"]

    def test_keep_generations_retains_predecessors(self, hand_dataset,
                                                   tmp_path):
        directory = tmp_path / "db"
        store = DurableStore.initialise(
            hand_dataset, directory,
            config=DurabilityConfig(directory=str(directory),
                                    keep_generations=1))
        try:
            store.checkpoint(force=True)
            store.checkpoint(force=True)
            names = sorted(p.name for p in directory.iterdir())
            assert "gen-2.arena" in names and "gen-1.arena" in names
            assert "gen-0.arena" not in names
        finally:
            store.close()

    def test_checkpoint_on_closed_store_rejected(self, store):
        store.close()
        with pytest.raises(PersistenceError):
            store.checkpoint()


class TestCrashWindows:
    """Kill inside the publish protocol; every window must recover clean."""

    def _crash_checkpoint(self, store, point):
        store.updater.add_actions(
            [TaggingAction(0, 100, "rock", timestamp=100)])
        with armed(point):
            with pytest.raises(InjectedCrash):
                store.checkpoint(force=True)
        return store.directory

    @pytest.mark.parametrize("point", ["compact.stage", "compact.commit",
                                       "publish.after_arena",
                                       "publish.before_manifest",
                                       "arena.before_replace"])
    def test_kill_during_publish_loses_nothing(self, store, point):
        directory = self._crash_checkpoint(store, point)
        del store
        # The manifest still names generation 0: the acked update is in
        # its WAL segment, and any half-published files are strays.
        manifest = read_manifest(directory)
        assert manifest["generation"] == 0
        recovered = DurableStore.open(directory)
        try:
            assert recovered.dataset.tagging.contains(0, 100, "rock")
            assert recovered.generation == 0
            # Recovery swept the interrupted checkpoint's strays.
            survivors = {p.name for p in directory.iterdir()}
            assert survivors == {"MANIFEST.json", "gen-0.arena", "wal-0.log"}
            # The next checkpoint completes normally.
            assert recovered.checkpoint(force=True)["published"]
            assert recovered.generation == 1
        finally:
            recovered.close()


class TestObservability:
    def test_stats_block(self, store):
        store.updater.add_actions(
            [TaggingAction(0, 100, "rock", timestamp=100)])
        stats = store.stats()
        assert stats["generation"] == 0
        assert stats["wal"]["records_appended"] == 1
        assert stats["recovery"]["records_replayed"] == 0

    def test_service_exposes_durability_stats_and_metrics(self, store):
        engine = SocialSearchEngine(store.dataset)
        service = QueryService(
            engine, ServiceConfig(cache_capacity=0, cache_ttl_seconds=0.0),
            durable=store)
        try:
            store.updater.add_actions(
                [TaggingAction(0, 100, "rock", timestamp=100)])
            snapshot = service.stats()
            assert snapshot["durability"]["wal"]["records_appended"] == 1
            # The durability block is flattened into namespaced gauges by
            # the service's pull collector; the WAL's own counters live in
            # the process-global registry.
            text = service.metrics_text()
            assert "durability_wal_records_appended 1" in text
            assert "durability_generation 0" in text
            from repro.obs.metrics import get_registry
            assert "wal_records_appended_total" in get_registry().expose_text()
        finally:
            service.close()
