"""Tests shared across every proximity measure plus measure-specific checks."""

import math

import numpy as np
import pytest
from dijkstra_oracle import ranked_proximity

from repro.config import ProximityConfig
from repro.errors import UnknownProximityError, UnknownUserError
from repro.graph import SocialGraph
from repro.proximity import (
    AdamicAdarProximity,
    CachedProximity,
    CommonNeighboursProximity,
    JaccardProximity,
    KatzProximity,
    LandmarkProximity,
    MonteCarloPageRankProximity,
    PersonalizedPageRankProximity,
    ShortestPathProximity,
    available_proximities,
    create_proximity,
    select_landmarks,
)
from repro.workload import scaled_dataset

ALL_MEASURES = [
    "shortest-path",
    "ppr",
    "ppr-mc",
    "katz",
    "common-neighbours",
    "adamic-adar",
    "jaccard",
    "landmark",
]


class TestRegistry:
    def test_all_measures_registered(self):
        for name in ALL_MEASURES:
            assert name in available_proximities()

    def test_create_by_name(self, small_graph):
        measure = create_proximity("shortest-path", small_graph)
        assert isinstance(measure, ShortestPathProximity)

    def test_unknown_name_raises(self, small_graph):
        with pytest.raises(UnknownProximityError):
            create_proximity("nope", small_graph)


@pytest.mark.parametrize("name", ALL_MEASURES)
class TestEveryMeasure:
    def test_values_in_unit_interval(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        vector = measure.vector(0)
        assert all(0.0 <= value <= 1.0 for value in vector.values())

    def test_seeker_not_in_vector(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        assert 0 not in measure.vector(0)

    def test_self_proximity_is_one(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        assert measure.proximity(2, 2) == 1.0

    def test_isolated_user_has_empty_vector(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        assert measure.vector(5) == {}

    def test_isolated_user_unreachable(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        assert measure.proximity(0, 5) == 0.0

    def test_iter_ranked_is_non_increasing(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        values = [value for _, value in measure.iter_ranked(0)]
        assert values == sorted(values, reverse=True)

    def test_iter_ranked_matches_vector(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        ranked = dict(measure.iter_ranked(0))
        vector = measure.vector(0)
        assert set(ranked) == set(vector)
        for user, value in ranked.items():
            assert value == pytest.approx(vector[user], rel=1e-6, abs=1e-9)

    def test_unknown_user_raises(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        with pytest.raises(UnknownUserError):
            measure.vector(17)

    def test_top_limits_results(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        assert len(measure.top(0, 2)) <= 2

    def test_direct_friend_beats_stranger(self, small_graph, name):
        measure = create_proximity(name, small_graph)
        # User 1 is a direct strong friend of 0; user 2 is only reachable
        # through 1 over a weak tie.
        assert measure.proximity(0, 1) >= measure.proximity(0, 2)

    # A measure bound to one graph and then rebound must serve exactly what
    # the same measure built fresh on the new graph serves: any per-graph
    # state (a sketch, transition arrays) is rebuilt, never patched.

    def test_rebind_serves_what_a_fresh_measure_serves(self, small_graph,
                                                       name):
        measure = create_proximity(name, small_graph)
        for seeker in range(small_graph.num_users):
            measure.vector_array(seeker)
        # A shortcut 0-2 and a first friend for the isolated user 5.
        updated = _with_edges(small_graph, 6, [(0, 2, 0.9), (5, 4, 0.6)])
        measure.rebind(updated)
        fresh = create_proximity(name, updated)
        for seeker in range(updated.num_users):
            np.testing.assert_array_equal(measure.vector_array(seeker),
                                          fresh.vector_array(seeker))
        assert measure.vector(5) != {}

    def test_rebind_to_a_grown_graph_serves_new_users(self, small_graph,
                                                      name):
        measure = create_proximity(name, small_graph)
        measure.vector_array(0)
        grown = _with_edges(small_graph, 7, [(6, 0, 0.7), (6, 5, 0.5)])
        measure.rebind(grown)
        fresh = create_proximity(name, grown)
        for seeker in range(grown.num_users):
            served = measure.vector_array(seeker)
            assert served.shape == (7,)
            np.testing.assert_array_equal(served, fresh.vector_array(seeker))
        assert measure.proximity(6, 0) > 0.0

    def test_cached_rebind_then_invalidate_is_fresh(self, small_graph, name):
        # The row cache keeps entries across rebind by design; once the
        # caller invalidates them every lookup recomputes on the new graph.
        cached = CachedProximity(create_proximity(name, small_graph),
                                 capacity=16)
        before = {seeker: cached.vector_array(seeker).copy()
                  for seeker in range(small_graph.num_users)}
        updated = _with_edges(small_graph, 6, [(0, 2, 0.9), (5, 4, 0.6)])
        cached.rebind(updated)
        np.testing.assert_array_equal(cached.vector_array(3), before[3])
        cached.invalidate(range(updated.num_users))
        fresh = create_proximity(name, updated)
        for seeker in range(updated.num_users):
            np.testing.assert_array_equal(cached.vector_array(seeker),
                                          fresh.vector_array(seeker))


def _with_edges(graph, num_users, extra):
    """``graph``'s edges plus ``extra``, over ``num_users`` users."""
    return SocialGraph.from_edges(num_users,
                                  list(graph.iter_edges()) + list(extra))


class TestShortestPathProximity:
    def test_direct_edge_value(self, small_graph):
        config = ProximityConfig(decay=0.5)
        measure = ShortestPathProximity(small_graph, config)
        # prox(0, 1) = decay * weight = 0.5 * 1.0.
        assert measure.proximity(0, 1) == pytest.approx(0.5)
        assert measure.proximity(0, 3) == pytest.approx(0.5 * 0.8)

    def test_two_hop_path_uses_best_route(self, small_graph):
        config = ProximityConfig(decay=0.5)
        measure = ShortestPathProximity(small_graph, config)
        # Best path 0-3-4: 0.5^2 * 0.8 * 1.0.
        assert measure.proximity(0, 4) == pytest.approx(0.25 * 0.8)

    def test_max_hops_cuts_far_users(self, small_graph):
        measure = ShortestPathProximity(small_graph, ProximityConfig(max_hops=1))
        vector = measure.vector(0)
        assert set(vector) == {1, 3}

    def test_no_decay_keeps_pure_path_product(self, small_graph):
        measure = ShortestPathProximity(small_graph, ProximityConfig(decay=1.0))
        assert measure.proximity(0, 4) == pytest.approx(0.8)

    def test_path_proximity_helper(self):
        value = ShortestPathProximity.path_proximity([0.8, 1.0], decay=0.5)
        assert value == pytest.approx(0.25 * 0.8)


class TestShortestPathMatchesTheOracle:
    """100 seekers of the benchmark corpus against the heapq loop.

    These rows pin the scalar math: computing the edge distances with
    ``np.log``, or the proximities with ``np.exp``, changes some of them in
    the last bit.
    """

    @pytest.fixture(scope="class")
    def corpus_graph(self):
        return scaled_dataset(2000, seed=23).graph

    def test_ranked_and_dense_rows_are_bit_identical(self, corpus_graph):
        config = ProximityConfig()
        measure = ShortestPathProximity(corpus_graph, config)
        for seeker in range(0, corpus_graph.num_users, 20):
            expected = ranked_proximity(corpus_graph, seeker, config.decay,
                                        config.max_hops)
            assert list(measure.iter_ranked(seeker)) == expected
            dense = np.zeros(corpus_graph.num_users, dtype=np.float64)
            for user, value in expected:
                dense[user] = value
            assert measure.vector_array(seeker).tobytes() == dense.tobytes()


class TestPageRank:
    def test_power_iteration_mass_concentrates_on_neighbours(self, small_graph):
        measure = PersonalizedPageRankProximity(small_graph, ProximityConfig())
        vector = measure.vector(0)
        assert vector[1] == pytest.approx(1.0)  # strongest neighbour normalised to 1
        assert vector[1] >= vector[2]

    def test_monte_carlo_is_deterministic_per_seed(self, small_graph):
        a = MonteCarloPageRankProximity(small_graph, ProximityConfig(), seed=3)
        b = MonteCarloPageRankProximity(small_graph, ProximityConfig(), seed=3)
        assert a.vector(0) == b.vector(0)

    def test_monte_carlo_roughly_agrees_with_power_iteration(self, small_graph):
        exact = PersonalizedPageRankProximity(small_graph, ProximityConfig()).vector(0)
        sampled = MonteCarloPageRankProximity(small_graph, ProximityConfig(),
                                              num_walks=4000, seed=1).vector(0)
        # Both should agree that user 1 is the closest.
        assert max(exact, key=exact.get) == max(sampled, key=sampled.get)


class TestKatz:
    def test_truncation_limits_reach(self, small_graph):
        close = KatzProximity(small_graph, ProximityConfig(max_hops=1)).vector(0)
        far = KatzProximity(small_graph, ProximityConfig(max_hops=3)).vector(0)
        assert set(close) == {1, 3}
        assert set(far) >= set(close)

    def test_direct_neighbour_strongest(self, small_graph):
        vector = KatzProximity(small_graph, ProximityConfig()).vector(0)
        assert max(vector, key=vector.get) == 1


class TestNeighbourhood:
    def test_common_neighbours_counts_shared_friends(self, small_graph):
        vector = CommonNeighboursProximity(small_graph).vector(0)
        # 0 and 4 share friends 1 and 3 but are not adjacent; 2 shares only 1.
        assert vector[4] > vector[2]

    def test_adamic_adar_discounts_popular_friends(self, small_graph):
        vector = AdamicAdarProximity(small_graph).vector(0)
        assert vector[4] > 0.0

    def test_jaccard_in_unit_interval(self, small_graph):
        vector = JaccardProximity(small_graph).vector(0)
        assert all(0.0 <= value <= 1.0 for value in vector.values())

    def test_myopic_measures_ignore_three_hop_users(self):
        from repro.graph import SocialGraph
        chain = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        vector = CommonNeighboursProximity(chain).vector(0)
        assert 3 not in vector


class TestLandmarks:
    def test_select_by_degree_prefers_hubs(self, small_graph):
        landmarks = select_landmarks(small_graph, 2, strategy="degree")
        assert 1 in landmarks  # user 1 has the highest degree

    def test_select_random_is_deterministic(self, small_graph):
        a = select_landmarks(small_graph, 3, seed=5, strategy="random")
        b = select_landmarks(small_graph, 3, seed=5, strategy="random")
        assert a == b

    def test_landmark_estimates_upper_bounded_by_exact(self, small_graph):
        exact = ShortestPathProximity(small_graph, ProximityConfig())
        sketch = LandmarkProximity(small_graph, ProximityConfig(), num_landmarks=3)
        exact_vector = exact.vector(0)
        for user, estimate in sketch.vector(0).items():
            if user in exact_vector:
                assert estimate <= exact_vector[user] + 1e-6

    def test_memory_accounting_positive(self, small_graph):
        sketch = LandmarkProximity(small_graph, ProximityConfig(), num_landmarks=2)
        assert sketch.memory_bytes() > 0
