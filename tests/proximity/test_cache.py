"""Tests for the LRU proximity cache."""

import pytest

from repro.config import ProximityConfig
from repro.proximity import CachedProximity, ShortestPathProximity


class CountingProximity(ShortestPathProximity):
    """Shortest-path proximity that counts row computations.

    The cache computes a missing row through ``vector_array``, the
    measure's native dense form, so that is the call counted.
    """

    def __init__(self, graph, config=None):
        super().__init__(graph, config)
        self.vector_calls = 0

    def vector_array(self, seeker):
        self.vector_calls += 1
        return super().vector_array(seeker)


@pytest.fixture()
def counting(small_graph):
    return CountingProximity(small_graph, ProximityConfig())


class TestCachedProximity:
    def test_second_lookup_is_a_hit(self, counting):
        cached = CachedProximity(counting, capacity=4)
        first = cached.vector(0)
        second = cached.vector(0)
        assert first == second
        assert counting.vector_calls == 1
        assert cached.statistics.hits == 1
        assert cached.statistics.misses == 1

    def test_cache_returns_copies(self, counting):
        cached = CachedProximity(counting, capacity=4)
        vector = cached.vector(0)
        vector[999] = 123.0
        assert 999 not in cached.vector(0)

    def test_eviction_when_capacity_exceeded(self, counting):
        cached = CachedProximity(counting, capacity=1)
        cached.vector(0)
        cached.vector(1)   # evicts seeker 0
        cached.vector(0)   # miss again
        assert cached.statistics.evictions >= 1
        assert counting.vector_calls == 3

    def test_zero_capacity_disables_caching(self, counting):
        cached = CachedProximity(counting, capacity=0)
        cached.vector(0)
        cached.vector(0)
        assert counting.vector_calls == 2
        assert cached.statistics.hits == 0

    def test_proximity_served_from_cache(self, counting):
        cached = CachedProximity(counting, capacity=4)
        value = cached.proximity(0, 1)
        assert value == pytest.approx(counting.proximity(0, 1))
        assert cached.proximity(0, 0) == 1.0

    def test_iter_ranked_cached_and_ordered(self, counting):
        cached = CachedProximity(counting, capacity=4)
        first = list(cached.iter_ranked(0))
        second = list(cached.iter_ranked(0))
        assert first == second
        values = [value for _, value in first]
        assert values == sorted(values, reverse=True)

    def test_clear_resets_statistics(self, counting):
        cached = CachedProximity(counting, capacity=4)
        cached.vector(0)
        cached.clear()
        assert cached.statistics.lookups == 0
        cached.vector(0)
        assert cached.statistics.misses == 1

    def test_hit_rate(self, counting):
        cached = CachedProximity(counting, capacity=4)
        cached.vector(0)
        cached.vector(0)
        cached.vector(0)
        assert cached.statistics.hit_rate == pytest.approx(2.0 / 3.0)
        assert cached.statistics.to_dict()["hits"] == 2

    def test_name_reflects_inner_measure(self, counting):
        cached = CachedProximity(counting, capacity=4)
        assert "shortest-path" in cached.name
        assert cached.inner is counting

    def test_sparse_view_derived_once_per_entry(self, counting):
        """Regression: the dict view must be memoised per cached entry, not
        re-derived from the dense array on every scalar lookup."""
        cached = CachedProximity(counting, capacity=4)
        for _ in range(5):
            cached.vector(0)
        assert counting.vector_calls == 1
        assert cached.statistics.sparse_derivations == 1
        # A second seeker derives its own view exactly once.
        cached.vector(1)
        cached.vector(1)
        assert cached.statistics.sparse_derivations == 2
        # The dense path alone never pays for a dict derivation.
        cached.vector_array(2)
        assert cached.statistics.sparse_derivations == 2
        assert cached.statistics.to_dict()["sparse_derivations"] == 2

    def test_dense_entry_derived_from_warm_ranked_stream(self, counting):
        """Warming the ranked stream must make the dense form free: the
        cached pairs are the whole vector, so no second online computation
        (the --warmup double-compute regression)."""
        cached = CachedProximity(counting, capacity=4)
        ranked = tuple(cached.iter_ranked(0))
        calls_after_stream = counting.vector_calls
        dense = cached.vector_array(0)
        assert counting.vector_calls == calls_after_stream
        assert {user: value for user, value in ranked} \
            == {user: float(dense[user]) for user in range(dense.shape[0])
                if dense[user] > 0.0}
        # And the dict form comes from the same derived entry.
        assert cached.vector(0) == dict(ranked)
        assert counting.vector_calls == calls_after_stream

    def test_frontier_bound_matches_ranked_stream(self, counting):
        cached = CachedProximity(counting, capacity=4)
        assert cached.frontier_bound(0) is None  # cold: not known cheaply
        first = next(iter(cached.iter_ranked(0)))
        assert cached.frontier_bound(0) == first[1]
        cached.vector_array(1)
        ranked = list(cached.iter_ranked(1))
        assert cached.frontier_bound(1) == ranked[0][1]


class TestInvalidation:
    """Regression tests for the post-update staleness bug: a CachedProximity
    must not keep serving pre-update vectors after the graph gains edges."""

    def test_invalidate_evicts_only_given_seekers(self, counting):
        cached = CachedProximity(counting, capacity=8)
        cached.vector(0)
        cached.vector(1)
        removed = cached.invalidate([0])
        assert removed == 1
        assert cached.statistics.invalidations == 1
        cached.vector(1)  # still cached
        assert counting.vector_calls == 2
        cached.vector(0)  # recomputed
        assert counting.vector_calls == 3

    def test_invalidate_unknown_seeker_is_noop(self, counting):
        cached = CachedProximity(counting, capacity=8)
        cached.vector(0)
        assert cached.invalidate([999]) == 0

    def test_rebind_and_invalidate_serve_fresh_vectors(self, small_graph):
        """The staleness fix end to end: after the updater rebuilds the graph
        with a new edge, rebind + invalidate must surface the new neighbour."""
        from repro.graph import SocialGraphBuilder

        inner = CountingProximity(small_graph, ProximityConfig())
        cached = CachedProximity(inner, capacity=8)
        before = cached.vector(0)
        assert before.get(5, 0.0) == 0.0  # user 5 is isolated

        builder = SocialGraphBuilder(small_graph.num_users)
        for u, v, w in small_graph.iter_edges():
            builder.add_edge(u, v, w)
        builder.add_edge(0, 5, 1.0)
        new_graph = builder.build()

        cached.invalidate([0, 5])
        cached.rebind(new_graph)
        assert cached.graph is new_graph
        assert inner.graph is new_graph
        after = cached.vector(0)
        assert after[5] > 0.0

    def test_rebind_keeps_unaffected_entries(self, small_graph):
        from repro.graph import SocialGraphBuilder

        inner = CountingProximity(small_graph, ProximityConfig())
        cached = CachedProximity(inner, capacity=8)
        cached.vector(2)
        calls_before = inner.vector_calls
        builder = SocialGraphBuilder(small_graph.num_users)
        for u, v, w in small_graph.iter_edges():
            builder.add_edge(u, v, w)
        builder.add_edge(0, 5, 1.0)
        cached.rebind(builder.build())
        cached.vector(2)  # not invalidated → still served from cache
        assert inner.vector_calls == calls_before
