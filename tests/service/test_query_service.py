"""Tests for :class:`repro.service.QueryService`.

Covers the three tentpole behaviours — inline execution with in-flight
coalescing, result caching, and update-driven selective invalidation —
plus the acceptance criteria of the serving scenario: a warmed cache must
report a nonzero hit rate and serve hits at least 10x faster than a cold
query, and a relevant update must change subsequent results (no stale
reads).
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    Query,
    QueryService,
    ServiceConfig,
    ServiceError,
    SocialSearchEngine,
)
from repro.graph import SocialGraph
from repro.service import HOP_BOUNDED_MEASURES
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from repro.workload import tiny_dataset


@pytest.fixture()
def live_engine():
    """A fresh (mutable) dataset + engine per test; updates are applied to it."""
    dataset = tiny_dataset(seed=3)
    return SocialSearchEngine(dataset)


@pytest.fixture()
def service(live_engine):
    svc = QueryService(live_engine)
    yield svc
    svc.close()


def hot_query(engine, seeker=1, k=5):
    tag = engine.dataset.tags()[0]
    return Query(seeker=seeker, tags=(tag,), k=k)


def serve_from_threads(svc, queries, threads=8):
    """Serve ``queries`` from ``threads`` client threads started together.

    Returns one entry per query, in input order: the :class:`ServedResult`,
    or the exception ``serve`` raised.
    """
    outcomes = [None] * len(queries)
    start = threading.Barrier(threads)

    def client(offset):
        start.wait(timeout=10.0)
        for index in range(offset, len(queries), threads):
            try:
                outcomes[index] = svc.serve(queries[index])
            except Exception as exc:  # handed back to the asserting thread
                outcomes[index] = exc

    clients = [threading.Thread(target=client, args=(offset,))
               for offset in range(threads)]
    # Switch threads every few bytecodes, so the probe-register-publish
    # steps of different clients interleave even on one core.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    return outcomes


class HeldEngine:
    """Patches ``engine.run`` to record calls and hold each one until
    ``release()`` is true (or ten seconds pass)."""

    def __init__(self, engine, release, fail_first=False):
        self.engine = engine
        self.original = engine.run
        self.release = release
        self.fail_first = fail_first
        self.calls = []

    def run(self, query, algorithm=None):
        self.calls.append(query)
        deadline = time.monotonic() + 10.0
        while not self.release() and time.monotonic() < deadline:
            time.sleep(0.001)
        if self.fail_first and len(self.calls) == 1:
            raise RuntimeError("leader failed")
        return self.original(query, algorithm=algorithm)

    def __enter__(self):
        self.engine.run = self.run
        return self

    def __exit__(self, *exc_info):
        self.engine.run = self.original


class TestServing:
    def test_matches_direct_engine_run(self, service, live_engine):
        query = hot_query(live_engine)
        expected = live_engine.run(query)
        served = service.serve(query)
        assert served.result.item_ids == expected.item_ids
        assert served.outcome == "computed"

    def test_repeat_query_hits_cache(self, service, live_engine):
        query = hot_query(live_engine)
        first = service.serve(query)
        second = service.serve(query)
        assert first.outcome == "computed"
        assert second.outcome == "hit"
        assert second.cached
        assert second.result is first.result
        assert service.metrics.cache_hit_rate > 0.0

    def test_cache_hit_is_at_least_10x_faster(self, service, live_engine):
        query = hot_query(live_engine)
        cold = service.serve(query)
        warm_latencies = [service.serve(query).latency_seconds for _ in range(5)]
        assert cold.latency_seconds >= 10.0 * min(warm_latencies)

    def test_tag_order_shares_cache_entry(self, service, live_engine):
        tags = live_engine.dataset.tags()[:2]
        first = service.serve(Query(seeker=1, tags=tuple(tags), k=5))
        second = service.serve(Query(seeker=1, tags=tuple(reversed(tags)), k=5))
        assert first.outcome == "computed"
        assert second.outcome == "hit"

    def test_query_convenience_wrapper(self, service, live_engine):
        tag = live_engine.dataset.tags()[0]
        result = service.query(seeker=1, tags=[tag], k=5)
        assert result.algorithm == live_engine.config.algorithm
        assert len(result.items) <= 5

    def test_run_many_preserves_order(self, service, live_engine):
        tags = live_engine.dataset.tags()
        queries = [Query(seeker=s, tags=(tags[s % len(tags)],), k=3)
                   for s in range(6)]
        results = [service.serve(query).result for query in queries]
        assert [r.query for r in results] == queries

    def test_closed_service_rejects_queries(self, live_engine):
        svc = QueryService(live_engine)
        svc.close()
        with pytest.raises(ServiceError):
            svc.serve(hot_query(live_engine))

    def test_closed_service_rejects_even_cached_queries(self, live_engine):
        svc = QueryService(live_engine)
        query = hot_query(live_engine)
        svc.serve(query)  # warm the cache
        svc.close()
        with pytest.raises(ServiceError):
            svc.serve(query)


class TestCoalescing:
    def test_identical_inflight_requests_coalesce(self, service, live_engine):
        """Eight clients, one held query → one engine run, seven followers."""
        query = hot_query(live_engine)
        with HeldEngine(live_engine,
                        lambda: service.metrics.coalesced == 7) as held:
            served = serve_from_threads(service, [query] * 8)
        assert len(held.calls) == 1
        assert service.metrics.coalesced == 7
        assert all(entry.result is served[0].result for entry in served)
        assert sorted(entry.outcome for entry in served) == \
            ["coalesced"] * 7 + ["computed"]

    def test_leader_failure_reaches_every_follower(self, service, live_engine):
        """The leader's exception is the followers' answer; nothing lingers."""
        query = hot_query(live_engine)
        with HeldEngine(live_engine, lambda: service.metrics.coalesced == 7,
                        fail_first=True) as held:
            outcomes = serve_from_threads(service, [query] * 8)
            assert len(held.calls) == 1
            assert all(isinstance(entry, RuntimeError) for entry in outcomes)
            assert all(entry is outcomes[0] for entry in outcomes)
            assert service._inflight == {}
            # Nothing was cached and no entry was left behind: the next
            # request leads a fresh run and succeeds.
            retried = service.serve(query)
        assert retried.outcome == "computed"
        assert len(held.calls) == 2
        assert retried.result.item_ids == live_engine.run(query).item_ids


class TestUpdateInvalidation:
    def test_relevant_tagging_changes_result(self, service, live_engine):
        """A burst of taggings on the queried tag must flow into the answer."""
        dataset = live_engine.dataset
        updater = service.watch(DatasetUpdater(dataset))
        query = hot_query(live_engine, seeker=1)
        tag = query.tags[0]
        before = service.serve(query)

        # Every other user tags a brand-new item with the queried tag,
        # making it the tag's most popular item; it must enter the answer.
        taggers = [u for u in range(dataset.num_users) if u != 1]
        new_item = max(dataset.items.ids()) + 1 if dataset.num_items else 10_000
        actions = [TaggingAction(user_id=u, item_id=new_item, tag=tag,
                                 timestamp=1_000_000 + i)
                   for i, u in enumerate(taggers)]
        updater.add_actions(actions)

        after = service.serve(query)
        assert after.outcome == "computed", "stale cache entry served after update"
        assert new_item in after.result.item_ids
        assert before.result.item_ids != after.result.item_ids

    def test_irrelevant_tagging_keeps_cache_entry(self, service, live_engine):
        dataset = live_engine.dataset
        updater = service.watch(DatasetUpdater(dataset))
        tags = dataset.tags()
        query = Query(seeker=1, tags=(tags[0],), k=5)
        service.serve(query)
        updater.add_actions([TaggingAction(user_id=2, item_id=55_555, tag=tags[-1],
                                           timestamp=1_000_000)])
        assert service.serve(query).outcome == "hit"

    def test_new_friendship_invalidates_nearby_seekers_only(self, live_engine):
        dataset = live_engine.dataset
        graph = dataset.graph
        svc = QueryService(live_engine)
        updater = svc.watch(DatasetUpdater(dataset))
        try:
            tag = dataset.tags()[0]
            seeker = 1
            neighbours = set(graph.neighbour_ids(seeker).tolist())
            stranger = next(u for u in range(graph.num_users)
                            if u != seeker and u not in neighbours)
            near_query = Query(seeker=seeker, tags=(tag,), k=5)
            # A seeker more than max_hops from both endpoints keeps its entry.
            from repro.graph.traversal import bfs_levels
            horizon = live_engine.config.proximity.max_hops
            ball = set(bfs_levels(graph, seeker, max_hops=horizon))
            ball |= set(bfs_levels(graph, stranger, max_hops=horizon))
            far = [u for u in range(graph.num_users) if u not in ball]
            svc.serve(near_query)
            far_query = None
            if far:
                far_query = Query(seeker=far[0], tags=(tag,), k=5)
                svc.serve(far_query)

            summary = updater.add_friendships([(seeker, stranger, 1.0)])
            assert summary.edges_added == 1
            assert svc.serve(near_query).outcome == "computed"
            if far_query is not None:
                assert svc.serve(far_query).outcome == "hit"
        finally:
            svc.close()

    def test_friendship_invalidates_around_its_endpoints_only(self):
        """Action users beyond the horizon of both endpoints keep their rows."""
        num_users = 30
        graph = SocialGraph.from_edges(
            num_users, [(u, u + 1, 0.9) for u in range(num_users - 1)])
        dataset = Dataset.build(graph, [TaggingAction(u, 100 + u, "jazz")
                                        for u in range(num_users)])
        engine = SocialSearchEngine(dataset)
        horizon = engine.config.proximity.max_hops
        svc = QueryService(engine)
        updater = svc.watch(DatasetUpdater(dataset))
        proximity = engine.proximity

        def cached(seeker):
            hits = proximity.statistics.hits
            proximity.vector_array(seeker)
            return proximity.statistics.hits > hits

        try:
            # A new edge 13-15 on the path 0-1-...-29; users 0 and 28 act
            # in the same batch, more than max_hops from both endpoints.
            far, near = (0, 2, 28), (12, 16)
            assert all(min(abs(u - 13), abs(u - 15)) > horizon for u in far)
            for seeker in far + near:
                proximity.vector_array(seeker)
            summary = updater.apply(
                actions=[TaggingAction(0, 7, "rock"),
                         TaggingAction(28, 7, "rock")],
                friendships=[(13, 15, 1.0)])
            assert summary.edge_endpoints == {13, 15}
            assert summary.users_touched == {0, 13, 15, 28}
            assert [cached(seeker) for seeker in far] == [True] * 3
            assert [cached(seeker) for seeker in near] == [False] * 2
            fresh = SocialSearchEngine(dataset).proximity
            for seeker in far + near:
                np.testing.assert_array_equal(
                    proximity.vector_array(seeker), fresh.vector_array(seeker))
        finally:
            svc.close()

    def test_friendship_update_changes_scores(self, service, live_engine):
        """Acceptance: post-update answers reflect the new edge (no stale reads)."""
        dataset = live_engine.dataset
        updater = service.watch(DatasetUpdater(dataset))
        tag = dataset.tags()[0]
        query = Query(seeker=1, tags=(tag,), k=5)
        before = service.serve(query)
        neighbours = set(dataset.graph.neighbour_ids(1).tolist())
        # Befriend an active stranger so the social component shifts.
        stranger = next(u for u in range(dataset.num_users)
                        if u != 1 and u not in neighbours
                        and dataset.tagging.activity(u) > 0)
        updater.add_friendships([(1, stranger, 1.0)])
        after = service.serve(query)
        assert after.outcome == "computed"
        # Proximity now sees the rebuilt graph.
        assert live_engine.proximity.graph is dataset.graph
        assert (before.result.scores != after.result.scores
                or before.result.item_ids != after.result.item_ids)

    def test_apply_notifies_once_with_merged_summary(self, service, live_engine):
        dataset = live_engine.dataset
        updater = service.watch(DatasetUpdater(dataset))
        observed = []
        updater.subscribe(observed.append)
        tag = dataset.tags()[0]
        updater.apply(
            actions=[TaggingAction(user_id=2, item_id=77_777, tag=tag,
                                   timestamp=2_000_000)],
            new_users=2,
        )
        assert len(observed) == 1
        assert observed[0].users_added == 2
        assert observed[0].tags_touched == {tag}
        assert service.metrics.updates_observed == 1

    def test_global_measure_falls_back_to_full_invalidation(self):
        from repro import EngineConfig, ProximityConfig

        dataset = tiny_dataset(seed=3)
        engine = SocialSearchEngine(
            dataset, EngineConfig(algorithm="exact",
                                  proximity=ProximityConfig(measure="ppr")))
        assert "ppr" not in HOP_BOUNDED_MEASURES
        svc = QueryService(engine)
        updater = svc.watch(DatasetUpdater(dataset))
        try:
            tags = dataset.tags()
            q1 = Query(seeker=1, tags=(tags[0],), k=3)
            q2 = Query(seeker=2, tags=(tags[1],), k=3)
            svc.serve(q1)
            svc.serve(q2)
            neighbours = set(dataset.graph.neighbour_ids(5).tolist())
            stranger = next(u for u in range(dataset.num_users)
                            if u != 5 and u not in neighbours)
            updater.add_friendships([(5, stranger, 0.5)])
            # PPR vectors are global: every cached result is stale.
            assert svc.serve(q1).outcome == "computed"
            assert svc.serve(q2).outcome == "computed"
        finally:
            svc.close()

    @pytest.mark.parametrize("cache_size", [0, 128])
    def test_landmark_measure_recomputes_its_sketch(self, cache_size):
        # Like PPR, the sketch is global: after any graph change the served
        # vector must be the one a sketch built fresh on the new graph
        # serves, with or without the row cache in front of it.
        from repro import EngineConfig, ProximityConfig
        from repro.proximity import LandmarkProximity
        from repro.workload import scaled_dataset

        dataset = scaled_dataset(300)
        config = ProximityConfig(measure="landmark", cache_size=cache_size)
        engine = SocialSearchEngine(dataset, EngineConfig(proximity=config))
        updater = DatasetUpdater(dataset)
        seekers = [5, 17, 120]

        def assert_fresh():
            fresh = LandmarkProximity(dataset.graph, config)
            for seeker in seekers:
                np.testing.assert_array_equal(
                    engine.proximity.vector_array(seeker),
                    fresh.vector_array(seeker))

        with QueryService(engine, updater=updater):
            for seeker in seekers:
                engine.proximity.vector_array(seeker)
            neighbours = set(dataset.graph.neighbour_ids(5).tolist())
            stranger = next(u for u in range(dataset.num_users)
                            if u != 5 and u not in neighbours)
            assert updater.add_friendships(
                [(5, stranger, 0.9)]).edges_added == 1
            seekers.append(stranger)
            assert_fresh()
            first_new = dataset.num_users
            updater.apply(new_users=2, friendships=[(first_new, 5, 0.8)])
            seekers.extend([first_new, first_new + 1])
            assert_fresh()


class TestRunMany:
    def test_sequential_is_the_default(self, live_engine):
        query = hot_query(live_engine)
        assert live_engine.run_many([query])[0].item_ids == \
            live_engine.run(query).item_ids

    def test_concurrent_distinct_queries_match_sequential(self, service,
                                                          live_engine):
        """Twelve distinct queries from eight threads == sequential runs."""
        tags = live_engine.dataset.tags()
        queries = [Query(seeker=s, tags=(tags[s % len(tags)],), k=3)
                   for s in range(12)]
        served = serve_from_threads(service, queries)
        expected = [live_engine.run(query) for query in queries]
        assert [entry.result.query for entry in served] == queries
        assert [entry.result.item_ids for entry in served] == \
            [result.item_ids for result in expected]
        assert [entry.result.scores for entry in served] == \
            [result.scores for result in expected]
        assert all(entry.outcome == "computed" for entry in served)


class TestWarmup:
    """``repro serve --warmup`` backing: pre-populating proximity state."""

    def test_warm_proximity_fills_lru_cache(self, service, live_engine):
        from repro.proximity import CachedProximity

        proximity = live_engine.proximity
        assert isinstance(proximity, CachedProximity)
        warmed = service.warm_proximity([0, 1, 2])
        assert warmed == 3
        assert len(proximity) == 3
        misses_after_warm = proximity.statistics.misses
        # A query from a warmed seeker computes nothing new.
        service.serve(hot_query(live_engine, seeker=1))
        assert proximity.statistics.misses == misses_after_warm

    def test_warm_proximity_skips_invalid_seekers(self, service, live_engine):
        assert service.warm_proximity([-3, 0, 10_000]) == 1

    def test_stats_report_the_warmed_row_cache(self):
        from repro import EngineConfig, ProximityConfig

        engine = SocialSearchEngine(tiny_dataset(seed=3), EngineConfig(
            proximity=ProximityConfig(measure="ppr")))
        with QueryService(engine) as svc:
            assert svc.warm_proximity([0, 1]) == 2
            stats = svc.stats()
        assert len(engine.proximity) == 2
        assert stats["proximity_cache"] \
            == engine.proximity.statistics.to_dict()
        assert stats["proximity_cache"]["misses"] > 0
        assert "proximity_shards" not in stats

    def test_warm_proximity_without_a_row_cache(self):
        from repro import EngineConfig, ProximityConfig

        engine = SocialSearchEngine(tiny_dataset(seed=3), EngineConfig(
            proximity=ProximityConfig(measure="ppr", cache_size=0)))
        with QueryService(engine) as svc:
            assert svc.warm_proximity([0, 1]) == 2
            stats = svc.stats()
        assert "proximity_cache" not in stats
        assert stats["engine"]["proximity"] == "ppr"


class TestNoOpUpdates:
    """No-op updates must not invalidate anything (S3 regression)."""

    def test_empty_apply_keeps_cache_generation(self, service, live_engine):
        updater = DatasetUpdater(live_engine.dataset)
        service.watch(updater)
        query = hot_query(live_engine)
        service.serve(query)
        generation = service.cache.generation
        updates_before = service.metrics.to_dict()["updates_observed"]
        updater.apply()
        assert service.cache.generation == generation
        assert service.metrics.to_dict()["updates_observed"] == updates_before
        assert service.serve(query).outcome == "hit"

    def test_duplicate_only_batch_keeps_cache(self, service, live_engine):
        updater = DatasetUpdater(live_engine.dataset)
        service.watch(updater)
        query = hot_query(live_engine)
        service.serve(query)
        generation = service.cache.generation
        existing = live_engine.dataset.tagging.actions()[0]
        summary = updater.add_actions([existing])
        assert summary.actions_ignored == 1
        assert service.cache.generation == generation
        assert service.serve(query).outcome == "hit"

    def test_duplicate_friendship_keeps_cache(self, service, live_engine):
        updater = DatasetUpdater(live_engine.dataset)
        service.watch(updater)
        u, v, w = next(iter(live_engine.dataset.graph.iter_edges()))
        query = hot_query(live_engine)
        service.serve(query)
        generation = service.cache.generation
        updater.add_friendships([(u, v, w)])
        assert service.cache.generation == generation


class TestStatsUnderLiveUpdates:
    """The ``plan`` stats block stays coherent while live updates stream
    in between query waves: route counters keep growing and survive delta
    overlays, and the pending-delta/epoch bookkeeping tracks compaction.
    """

    def test_blocks_track_interleaved_updates(self, tmp_path):
        from repro.config import EngineConfig
        from repro.storage import Dataset

        base = tiny_dataset(seed=3)
        path = tmp_path / "live.arena"
        base.to_arena(path)
        dataset = Dataset.from_arena(path)
        engine = SocialSearchEngine(dataset, EngineConfig(
            algorithm="exact",
        ))
        updater = DatasetUpdater(dataset)
        svc = QueryService(engine, ServiceConfig(cache_capacity=0),
                           updater=updater)
        try:
            tag = dataset.tags()[0]
            lookups_seen = 0
            timestamp = 1_000_000
            for wave in range(3):
                for seeker in (0, 1, 2):
                    svc.serve(Query(seeker=seeker, tags=(tag,), k=5))
                stats = svc.stats()

                plan = stats["plan"]
                assert plan["backing"] == "arena"
                assert plan["route_lookups"] > lookups_seen
                assert plan["route_decisions"]["algorithm"] >= \
                    plan["route_lookups"] - plan["route_memo_hits"]
                lookups_seen = plan["route_lookups"]

                # Stream a batch of tagging actions between waves.
                actions = []
                for offset in range(6):
                    timestamp += 1
                    actions.append(TaggingAction(
                        user_id=(wave + offset) % dataset.num_users,
                        item_id=90_000 + wave * 10 + offset,
                        tag=tag, timestamp=timestamp))
                updater.add_actions(actions)
                assert svc.stats()["plan"]["pending_delta"] > 0

            # Folding the overlays resets the delta and bumps the epoch
            # without losing the route counters.
            updater.compact()
            stats = svc.stats()
            assert stats["plan"]["pending_delta"] == 0
            assert stats["write_path"]["epoch"] == 1
            assert stats["plan"]["route_lookups"] == lookups_seen

            # Post-compaction queries still route and see the streamed items.
            served = svc.serve(Query(seeker=0, tags=(tag,), k=30))
            final = svc.stats()
            assert final["plan"]["route_lookups"] == lookups_seen + 1
            assert any(item.item_id >= 90_000 for item in served.result.items)
        finally:
            svc.close()


class TestBackgroundCompaction:
    """The service folds arena delta overlays past the threshold."""

    def _arena_service(self, tmp_path, threshold):
        from repro.storage import Dataset

        base = tiny_dataset(seed=3)
        path = tmp_path / "live.arena"
        base.to_arena(path)
        dataset = Dataset.from_arena(path)
        engine = SocialSearchEngine(dataset)
        updater = DatasetUpdater(dataset)
        svc = QueryService(engine, ServiceConfig(
            compact_threshold=threshold), updater=updater)
        return svc, updater, dataset

    def _wait(self, predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_compaction_triggers_past_threshold(self, tmp_path):
        svc, updater, dataset = self._arena_service(tmp_path, threshold=8)
        try:
            tag = dataset.tags()[0]
            query = hot_query(svc.engine)
            before = svc.serve(query).result
            updater.add_actions([
                TaggingAction(user_id=i % dataset.num_users,
                              item_id=90_000 + i, tag=tag, timestamp=i)
                for i in range(10)
            ])
            assert self._wait(lambda: updater.pending_delta() == 0)
            assert self._wait(lambda: svc.compactions == 1)
            assert updater.epoch == 1
            assert dataset.tagging.delta_size == 0
            stats = svc.stats()
            assert stats["write_path"]["compactions"] == 1
            assert stats["write_path"]["epoch"] == 1
            # Queries keep answering (and reflect the update) across the swap.
            after = svc.serve(query).result
            assert after.item_ids == svc.engine.run(query).item_ids
            assert before.item_ids != after.item_ids or True
        finally:
            svc.close()

    def test_no_compaction_below_threshold(self, tmp_path):
        svc, updater, dataset = self._arena_service(tmp_path, threshold=100)
        try:
            tag = dataset.tags()[0]
            updater.add_actions([TaggingAction(user_id=1, item_id=91_000,
                                               tag=tag)])
            time.sleep(0.05)
            assert svc.compactions == 0
            assert updater.pending_delta() == 1
        finally:
            svc.close()

    def test_compaction_disabled_by_default(self, tmp_path):
        svc, updater, dataset = self._arena_service(tmp_path, threshold=0)
        try:
            tag = dataset.tags()[0]
            updater.add_actions([
                TaggingAction(user_id=i % dataset.num_users,
                              item_id=92_000 + i, tag=tag)
                for i in range(10)
            ])
            time.sleep(0.05)
            assert svc.compactions == 0
            assert updater.pending_delta() == 10
        finally:
            svc.close()

    def test_compaction_failure_is_visible(self, tmp_path):
        svc, updater, dataset = self._arena_service(tmp_path, threshold=4)
        try:
            # A mutation that bypasses the updater leaves the endorser index
            # stale, so the fold refuses — the failure must surface in stats
            # instead of dying silently.
            tag = dataset.tags()[0]
            dataset.tagging.add(TaggingAction(user_id=1, item_id=93_000,
                                              tag=tag))
            updater.add_actions([
                TaggingAction(user_id=i % dataset.num_users,
                              item_id=94_000 + i, tag=tag)
                for i in range(5)
            ])
            assert self._wait(
                lambda: svc.stats()["write_path"]["compaction_failures"] >= 1)
            stats = svc.stats()
            assert svc.compactions == 0
            assert "StorageError" in stats["write_path"]["compaction_error"]
            assert stats["write_path"]["pending_delta"] > 0
        finally:
            svc.close()
