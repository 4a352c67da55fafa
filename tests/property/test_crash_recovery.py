"""Crash-recovery property: kill at every WAL record boundary, lose nothing.

The schedule is exhaustive, not sampled: a reference run counts how many
WAL records the update trace appends, then one fresh durable store per
boundary ``N`` is killed exactly at the ``N``-th append (both *before* the
record reaches the log and *after* it is durable but unacknowledged), plus
a torn-final-record run.  Every recovery must

* retain every acknowledged update (checked against the raw WAL bytes,
  independently of the recovery code), and
* answer queries **bit-identically** (rankings, scores, access accounting)
  to a dataset rebuilt from scratch from base + the durable log, across
  the online and materialized execution paths.
"""

import pytest

from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core import Query, SocialSearchEngine
from repro.graph import SocialGraphBuilder
from repro.obs.faults import InjectedCrash, faults, tear_final_record
from repro.storage import Dataset, TaggingAction
from repro.storage.durable import DurableStore, read_manifest
from repro.storage.wal import scan_wal

#: The update trace: batches of actions plus interleaved friendships over
#: the 6-user hand dataset (one WAL record per effective call).
BATCHES = [
    ([TaggingAction(0, 100, "rock", timestamp=101),
      TaggingAction(4, 103, "jazz", timestamp=102)], []),
    ([TaggingAction(2, 104, "vinyl", timestamp=103)], [(2, 5, 0.7)]),
    ([TaggingAction(5, 100, "rock", timestamp=104),
      TaggingAction(1, 102, "vinyl", timestamp=105)], [(0, 4, 0.4)]),
    ([TaggingAction(3, 104, "rock", timestamp=106)], []),
]

QUERIES = [Query(seeker=0, tags=("jazz",), k=5),
           Query(seeker=4, tags=("rock",), k=5),
           Query(seeker=2, tags=("vinyl", "jazz"), k=4)]


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def _engine(dataset, materialize=False):
    engine = SocialSearchEngine(dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure="shortest-path",
                                  materialize=materialize, cache_size=0),
    ))
    if materialize:
        engine.proximity.build()
    return engine


def _signature(result):
    return ([(item.item_id, item.score) for item in result.items],
            result.accounting.to_dict())


def _apply_batches(store):
    """Drive the trace; returns the acked (actions, edges) prefix."""
    acked_actions, acked_edges = [], []
    for actions, edges in BATCHES:
        store.updater.add_actions(actions)
        acked_actions.extend(actions)
        if edges:
            store.updater.add_friendships(edges)
            acked_edges.extend(edges)
    return acked_actions, acked_edges


def _assert_recovery_exact(directory, hand_dataset, base_actions, base_edges,
                           acked_actions, acked_edges):
    """The two recovery properties, shared by every kill schedule."""
    # 1. Ack implies durable: scan the surviving WAL segment directly.
    manifest = read_manifest(directory)
    scan = scan_wal(directory / str(manifest["wal"]))
    durable_actions, durable_edges = [], []
    for record in scan.records:
        if record.kind == "actions":
            durable_actions.extend(record.actions())
        elif record.kind == "friendships":
            durable_edges.extend(record.friendships())
    durable_keys = {(a.user_id, a.item_id, a.tag) for a in durable_actions}
    base_keys = {(a.user_id, a.item_id, a.tag) for a in base_actions}
    for action in acked_actions:
        assert (action.user_id, action.item_id, action.tag) \
            in durable_keys | base_keys, f"acked action lost: {action}"
    durable_edge_keys = {(min(u, v), max(u, v)) for u, v, _ in durable_edges}
    base_edge_keys = {(min(u, v), max(u, v)) for u, v, _ in base_edges}
    for u, v, _ in acked_edges:
        assert (min(u, v), max(u, v)) in durable_edge_keys | base_edge_keys, \
            f"acked edge lost: ({u}, {v})"

    # 2. Bit-identical recovery: the reopened store answers exactly like a
    #    from-scratch rebuild of base + durable log, on every path.
    recovered = DurableStore.open(directory)
    try:
        builder = SocialGraphBuilder(hand_dataset.num_users)
        for u, v, w in base_edges:
            builder.add_edge(u, v, w)
        for u, v, w in durable_edges:
            builder.add_edge(u, v, w)
        fresh = Dataset.build(builder.build(),
                              list(base_actions) + durable_actions,
                              name="fresh")
        baseline = [_signature(_engine(fresh).run(q)) for q in QUERIES]
        online = _engine(recovered.dataset)
        served = _engine(recovered.dataset, materialize=True)
        observed = {
            "online": [_signature(online.run(q)) for q in QUERIES],
            "materialized": [_signature(served.run(q)) for q in QUERIES],
        }
        for path, signatures in observed.items():
            assert signatures == baseline, f"{path} diverged after recovery"
    finally:
        recovered.close()


def _reference_record_count(hand_dataset, tmp_path):
    store = DurableStore.initialise(hand_dataset, tmp_path / "reference")
    _apply_batches(store)
    count = store.wal.records_appended
    store.close()
    return count


@pytest.mark.parametrize("point", ["wal.before_append", "wal.after_append"])
def test_kill_at_every_record_boundary(point, hand_dataset, tmp_path):
    base_actions = list(hand_dataset.tagging.actions())
    base_edges = list(hand_dataset.graph.iter_edges())
    total_records = _reference_record_count(hand_dataset, tmp_path)
    assert total_records == 6  # 4 action batches + 2 friendship batches

    for boundary in range(total_records):
        directory = tmp_path / f"{point.replace('.', '-')}-{boundary}"
        store = DurableStore.initialise(hand_dataset, directory)
        acked_actions, acked_edges = [], []
        faults.arm(point, after=boundary)
        try:
            for actions, edges in BATCHES:
                store.updater.add_actions(actions)
                acked_actions.extend(actions)
                if edges:
                    store.updater.add_friendships(edges)
                    acked_edges.extend(edges)
        except InjectedCrash:
            pass
        else:
            pytest.fail(f"boundary {boundary}: the kill never fired")
        finally:
            faults.reset()
        del store  # abandoned mid-write, exactly like a killed process
        _assert_recovery_exact(directory, hand_dataset, base_actions,
                               base_edges, acked_actions, acked_edges)


def test_torn_final_record_recovers_to_the_acked_prefix(hand_dataset,
                                                        tmp_path):
    base_actions = list(hand_dataset.tagging.actions())
    base_edges = list(hand_dataset.graph.iter_edges())
    directory = tmp_path / "torn"
    store = DurableStore.initialise(hand_dataset, directory)
    acked_actions, acked_edges = _apply_batches(store)
    # One more record reaches the disk but is torn mid-write: the caller
    # never saw an acknowledgement, so recovery must drop it.
    store.wal.append_actions([TaggingAction(5, 101, "jazz",
                                            timestamp=999)])
    tear_final_record(store.wal.path, keep_bytes=6)
    del store
    _assert_recovery_exact(directory, hand_dataset, base_actions, base_edges,
                           acked_actions, acked_edges)

    reopened = DurableStore.open(directory)
    try:
        assert not reopened.dataset.tagging.contains(5, 101, "jazz")
    finally:
        reopened.close()
