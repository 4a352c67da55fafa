"""Crash-recovery property: kill at every WAL record boundary, lose nothing.

The schedule is exhaustive, not sampled: a reference run counts how many
WAL records the update trace appends, then one fresh durable store per
boundary ``N`` is killed exactly at the ``N``-th append (*before* the
record reaches the log, inside its fsync, and *after* it is durable but
unacknowledged), plus a torn-final-record run and one kill at each point
inside a forced checkpoint.  Every recovery must

* retain every acknowledged update (checked against the raw WAL bytes,
  independently of the recovery code), and
* answer queries **bit-identically** (rankings, scores, access accounting)
  to a dataset rebuilt from scratch from base + the durable log.

Every ``fault_point`` in the package is in :data:`WRITE_POINTS` or
:data:`CHECKPOINT_POINTS`, so a new injection point cannot go untested.
"""

import ast
import threading
from pathlib import Path

import pytest

import repro

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

#: Injection points on the acknowledged-update path: one WAL append each.
WRITE_POINTS = ("wal.before_append", "wal.fsync", "wal.after_append")

#: Injection points inside ``DurableStore.checkpoint``, in firing order.
CHECKPOINT_POINTS = ("compact.stage", "compact.commit", "publish.after_arena",
                     "publish.before_manifest", "arena.before_replace")


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def _engine(dataset):
    return SocialSearchEngine(dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure="shortest-path", cache_size=0),
    ))


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
    #    from-scratch rebuild of base + durable log.
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
        assert [_signature(online.run(q)) for q in QUERIES] == baseline, \
            "recovered store diverged from the rebuild"
    finally:
        recovered.close()


def _reference_record_count(hand_dataset, tmp_path):
    store = DurableStore.initialise(hand_dataset, tmp_path / "reference")
    _apply_batches(store)
    count = store.wal.records_appended
    store.close()
    return count


@pytest.mark.parametrize("point", WRITE_POINTS)
def test_kill_at_every_record_boundary(point, hand_dataset, tmp_path):
    base_actions = list(hand_dataset.tagging.actions())
    base_edges = list(hand_dataset.graph.iter_edges())
    total_records = _reference_record_count(hand_dataset, tmp_path)
    assert total_records == 6  # 4 action batches + 2 friendship batches

    for boundary in range(total_records):
        directory = tmp_path / f"{point.replace('.', '-')}-{boundary}"
        store = DurableStore.initialise(hand_dataset, directory)
        acked_actions, acked_edges = [], []
        # A failing fsync is an I/O error, not a kill; either way the
        # update is not acknowledged.
        exc = OSError("injected fsync failure") if point == "wal.fsync" \
            else None
        faults.arm(point, exc=exc, after=boundary)
        try:
            for actions, edges in BATCHES:
                store.updater.add_actions(actions)
                acked_actions.extend(actions)
                if edges:
                    store.updater.add_friendships(edges)
                    acked_edges.extend(edges)
        except (InjectedCrash, OSError):
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


@pytest.mark.parametrize("point", CHECKPOINT_POINTS)
def test_kill_inside_a_checkpoint(point, hand_dataset, tmp_path):
    base_actions = list(hand_dataset.tagging.actions())
    base_edges = list(hand_dataset.graph.iter_edges())
    directory = tmp_path / point.replace(".", "-")
    store = DurableStore.initialise(hand_dataset, directory)
    acked_actions, acked_edges = _apply_batches(store)
    faults.arm(point)
    with pytest.raises(InjectedCrash):
        store.checkpoint(force=True)
    del store  # abandoned mid-checkpoint, exactly like a killed process
    _assert_recovery_exact(directory, hand_dataset, base_actions, base_edges,
                           acked_actions, acked_edges)


def _fault_point_names():
    """Every ``fault_point("...")`` literal in the package source."""
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "fault_point"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_every_fault_point_is_in_the_kill_matrix():
    assert _fault_point_names() == set(WRITE_POINTS) | set(CHECKPOINT_POINTS)


def test_queries_keep_answering_through_checkpoints(hand_dataset, tmp_path):
    """One reader thread queries the live dataset while generations swap."""
    store = DurableStore.initialise(hand_dataset, tmp_path / "swap")
    engine = _engine(store.dataset)
    errors, served = [], [0]
    first_answer, stop = threading.Event(), threading.Event()

    def read_loop():
        while not stop.is_set():
            for query in QUERIES:
                try:
                    engine.run(query)
                except Exception as exc:  # noqa: BLE001 - the verdict
                    errors.append(repr(exc))
                    first_answer.set()
                    return
                served[0] += 1
                first_answer.set()

    reader = threading.Thread(target=read_loop, daemon=True)
    reader.start()
    try:
        assert first_answer.wait(timeout=30.0)
        for actions, edges in BATCHES:
            store.updater.add_actions(actions)
            if edges:
                store.updater.add_friendships(edges)
            store.checkpoint(force=True)
    finally:
        stop.set()
        reader.join(timeout=30.0)
    try:
        assert errors == []
        assert store.generation == len(BATCHES)
        assert served[0] >= 1
    finally:
        store.close()
