"""Update-while-serving equivalence: live maintenance == fresh rebuild.

The write path's contract: after any interleaving of live updates (tagging
actions, friendships, user growth) applied through
:class:`~repro.storage.updates.DatasetUpdater` — with a
:class:`~repro.service.QueryService` watching it, so selective invalidation
of cached proximity rows runs exactly as it would in production — every
observable of a query answer (ranking, exact scores, access accounting)
must be identical to a dataset rebuilt from scratch from the merged
action/edge log.  That must hold for proximity computed online and served
from the cache, and for both the in-memory and the arena-backed
(delta-overlay) storage.
"""

import numpy as np
import pytest

from repro import SocialSearchEngine
from repro.config import (
    DatasetConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    ServiceConfig,
    WorkloadConfig,
)
from repro.core.query import Query
from repro.graph import SocialGraphBuilder
from repro.service import QueryService
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from repro.workload import build_dataset, generate_workload

ALGORITHMS = ("exact", "social-first", "ta")
NUM_USERS = 50


def _base_dataset():
    return build_dataset(DatasetConfig(
        name="update-equivalence",
        num_users=NUM_USERS,
        num_items=100,
        num_tags=12,
        num_actions=600,
        avg_degree=5.0,
        homophily=0.5,
        seed=19,
    ))


def _live_dataset(backing, base, tmp_path):
    if backing == "memory":
        # An independent rebuild so mutations never leak into ``base``.
        builder = SocialGraphBuilder(base.num_users)
        for u, v, w in base.graph.iter_edges():
            builder.add_edge(u, v, w)
        return Dataset.build(builder.build(), base.tagging.actions(),
                             name=base.name)
    path = tmp_path / "live.arena"
    base.to_arena(path)
    return Dataset.from_arena(path)


def _updates(base):
    """A deterministic interleaving of every update kind."""
    rng = np.random.default_rng(99)
    tags = base.tags()
    items = [item.item_id for item in base.items]
    new_user = base.num_users  # added mid-stream
    steps = []
    timestamp = 500_000
    for round_index in range(4):
        actions = []
        for _ in range(20):
            timestamp += 1
            actions.append(TaggingAction(
                user_id=int(rng.integers(0, base.num_users)),
                item_id=int(items[int(rng.integers(0, len(items)))])
                if rng.random() < 0.7 else 5_000 + timestamp,
                tag=str(tags[int(rng.integers(0, len(tags)))])
                if rng.random() < 0.9 else f"fresh-tag-{round_index}",
                timestamp=timestamp,
            ))
        steps.append(("actions", actions))
        if round_index == 1:
            steps.append(("users", 1))
            steps.append(("friendships", [(new_user, 0, 0.9),
                                          (new_user, 7, 0.4)]))
            timestamp += 1
            steps.append(("actions", [TaggingAction(
                user_id=new_user, item_id=items[0], tag=str(tags[0]),
                timestamp=timestamp)]))
        if round_index == 2:
            steps.append(("friendships", [
                (int(rng.integers(0, base.num_users)),
                 int(rng.integers(0, base.num_users)), 0.6)
                for _ in range(3)]))
    return steps


def _apply(updater, steps):
    added_actions, added_edges, added_users = [], [], 0
    for kind, payload in steps:
        if kind == "actions":
            updater.add_actions(payload)
            added_actions.extend(payload)
        elif kind == "friendships":
            payload = [(u, v, w) for u, v, w in payload if u != v]
            updater.add_friendships(payload)
            added_edges.extend(payload)
        elif kind == "users":
            updater.add_users(payload)
            added_users += payload
    return added_actions, added_edges, added_users


def _fresh_rebuild(base, added_actions, added_edges, added_users):
    builder = SocialGraphBuilder(base.num_users + added_users)
    for u, v, w in base.graph.iter_edges():
        builder.add_edge(u, v, w)
    for u, v, w in added_edges:
        builder.add_edge(u, v, w)
    return Dataset.build(builder.build(),
                         base.tagging.actions() + added_actions,
                         name=base.name)


def _signature(result):
    return ([item.item_id for item in result.items],
            [item.score for item in result.items],
            result.accounting.to_dict())


def _queries(dataset, new_user):
    queries = list(generate_workload(
        dataset, WorkloadConfig(num_queries=8, k=5, seed=7)))
    # The mid-stream user must be a first-class seeker too.
    queries.append(Query(seeker=new_user, tags=(dataset.tags()[0],), k=5))
    return queries


@pytest.mark.parametrize("backing", ("memory", "arena"))
@pytest.mark.parametrize("measure", ("katz", "ppr"))
def test_interleaved_updates_match_fresh_rebuild(backing, measure, tmp_path):
    base = _base_dataset()
    live = _live_dataset(backing, base, tmp_path)
    engine = SocialSearchEngine(live, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure=measure),
    ))
    updater = DatasetUpdater(live)
    with QueryService(engine, ServiceConfig(cache_capacity=16),
                      updater=updater):
        added_actions, added_edges, added_users = _apply(updater, _updates(base))

    fresh = _fresh_rebuild(base, added_actions, added_edges, added_users)
    assert live.num_actions == fresh.num_actions
    assert live.graph == fresh.graph

    fresh_online = SocialSearchEngine(fresh, EngineConfig(
        algorithm="exact", scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure=measure, cache_size=0)))
    live_online = SocialSearchEngine(live, EngineConfig(
        algorithm="exact", scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure=measure, cache_size=0)))

    queries = _queries(fresh, base.num_users)
    for algorithm in ALGORITHMS:
        baseline = [_signature(fresh_online.run(q, algorithm=algorithm))
                    for q in queries]
        assert [_signature(live_online.run(q, algorithm=algorithm))
                for q in queries] == baseline, f"online/{algorithm}"
        assert [_signature(engine.run(q, algorithm=algorithm))
                for q in queries] == baseline, f"cached/{algorithm}"


def test_arena_fast_path_survives_updates(tmp_path):
    """Updates must not collapse the arena store to the Python fallback."""
    base = _base_dataset()
    live = _live_dataset("arena", base, tmp_path)
    engine = SocialSearchEngine(live, EngineConfig(
        algorithm="exact", proximity=ProximityConfig(measure="katz")))
    query = generate_workload(live, WorkloadConfig(num_queries=1, k=5,
                                                   seed=7))[0]
    engine.run(query)
    rows_before = len(engine.proximity)
    updater = DatasetUpdater(live)
    action_steps = [
        ("actions", [a for a in payload if a.user_id < base.num_users])
        for kind, payload in _updates(base) if kind == "actions"
    ]
    with QueryService(engine, updater=updater):
        recorded = sum(updater.add_actions(payload).actions_added
                       for _kind, payload in action_steps)
    # The delta overlay absorbed the actions; the frozen arrays still serve.
    assert recorded > 0
    assert live.tagging.delta_size == recorded
    # Tagging-only updates leave every cached proximity row in place.
    assert rows_before > 0
    assert len(engine.proximity) == rows_before
    # Compaction folds the delta and changes no answer.
    before = _signature(engine.run(query))
    assert updater.compact() == recorded
    assert updater.epoch == 1
    assert live.tagging.delta_size == 0
    assert _signature(engine.run(query)) == before


def test_compaction_mid_stream_is_equivalent(tmp_path):
    """Fold the delta halfway through the update stream; answers match."""
    base = _base_dataset()
    live = _live_dataset("arena", base, tmp_path)
    engine = SocialSearchEngine(live, EngineConfig(
        algorithm="exact", proximity=ProximityConfig(measure="katz")))
    updater = DatasetUpdater(live)
    steps = _updates(base)
    middle = len(steps) // 2
    with QueryService(engine, updater=updater):
        first = _apply(updater, steps[:middle])
        updater.compact()
        second = _apply(updater, steps[middle:])
    added_actions = first[0] + second[0]
    added_edges = first[1] + second[1]
    added_users = first[2] + second[2]
    fresh = _fresh_rebuild(base, added_actions, added_edges, added_users)
    fresh_online = SocialSearchEngine(fresh, EngineConfig(
        algorithm="exact",
        proximity=ProximityConfig(measure="katz", cache_size=0)))
    for query in _queries(fresh, base.num_users):
        assert _signature(engine.run(query)) \
            == _signature(fresh_online.run(query))


def test_arena_katz_trace_pins_rows_computed_and_invalidated(tmp_path):
    """Exact per-step cache counts of the cached trace.

    After each update step the 8 workload queries are served again through
    the result cache.  Per step the list records the proximity rows the
    cached engine computed and dropped, and the result-cache entries the
    service dropped.  Unlike a latency ratio, these move only when the
    invalidation logic does.  The horizon is 2 hops: at the default 4 every
    friendship in the trace reaches all 51 users, so dropping only the
    affected rows and dropping every row would count the same.
    """
    base = _base_dataset()
    live = _live_dataset("arena", base, tmp_path)
    engine = SocialSearchEngine(live, EngineConfig(
        algorithm="exact", scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure="katz", max_hops=2)))
    updater = DatasetUpdater(live)
    queries = generate_workload(base, WorkloadConfig(num_queries=8, k=5,
                                                     seed=7))
    rows = engine.proximity.statistics
    deltas = []
    with QueryService(engine, ServiceConfig(), updater=updater) as service:
        def counts():
            return (rows.misses, rows.invalidations,
                    service.metrics.entries_invalidated)

        for query in queries:
            service.serve(query)
        before = counts()
        for step in _updates(base):
            _apply(updater, [step])
            for query in queries:
                service.serve(query)
            after = counts()
            deltas.append(tuple(a - b for a, b in zip(after, before)))
            before = after
    # (rows computed, rows invalidated, result entries invalidated) per
    # step: actions, actions, users, friendships, actions, actions,
    # friendships, actions.
    assert deltas == [(0, 0, 7), (0, 0, 8), (0, 0, 0), (6, 6, 6),
                      (1, 0, 4), (1, 0, 7), (8, 8, 8), (0, 0, 7)]
