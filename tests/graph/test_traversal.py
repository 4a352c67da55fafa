"""Tests for BFS, Dijkstra and component primitives."""

import math

import pytest

from repro.graph import (
    SocialGraph,
    bfs_levels,
    connected_components,
    dijkstra,
    dijkstra_iter,
    distance_to_proximity,
    edge_distance,
    largest_component,
    reachable_within,
    shortest_path,
    shortest_path_row,
)
from repro.errors import UnknownUserError


class TestEdgeDistance:
    def test_weight_one_costs_nothing(self):
        assert edge_distance(1.0) == pytest.approx(0.0)

    def test_weaker_ties_cost_more(self):
        assert edge_distance(0.25) > edge_distance(0.5) > edge_distance(0.9)

    def test_roundtrip_with_proximity(self):
        for weight in (1.0, 0.7, 0.3, 0.05):
            assert distance_to_proximity(edge_distance(weight)) == pytest.approx(weight)


class TestBfs:
    def test_levels_from_source(self, small_graph):
        levels = bfs_levels(small_graph, 0)
        assert levels[0] == 0
        assert levels[1] == 1
        assert levels[3] == 1
        assert levels[2] == 2
        assert levels[4] == 2
        assert 5 not in levels  # isolated user is unreachable

    def test_max_hops_truncates(self, small_graph):
        levels = bfs_levels(small_graph, 0, max_hops=1)
        assert set(levels) == {0, 1, 3}

    def test_unknown_source_rejected(self, small_graph):
        with pytest.raises(UnknownUserError):
            bfs_levels(small_graph, 42)

    def test_reachable_within(self, small_graph):
        assert reachable_within(small_graph, 0, 1) == [0, 1, 3]


class TestDijkstra:
    def test_direct_edge_distance(self, small_graph):
        distances = dijkstra(small_graph, 0)
        assert distances[1] == pytest.approx(edge_distance(1.0))
        assert distances[3] == pytest.approx(edge_distance(0.8))

    def test_prefers_stronger_path(self, small_graph):
        # 0 -> 4 via 3 (0.8 * 1.0 = 0.8) beats via 1 (1.0 * 0.25 = 0.25).
        distances = dijkstra(small_graph, 0)
        assert distances[4] == pytest.approx(edge_distance(0.8) + edge_distance(1.0))

    def test_unreachable_node_missing(self, small_graph):
        assert 5 not in dijkstra(small_graph, 0)

    def test_iter_order_non_decreasing(self, small_graph):
        distances = [dist for _, dist, _ in dijkstra_iter(small_graph, 0)]
        assert distances == sorted(distances)

    def test_iter_hop_penalty_added_per_edge(self, small_graph):
        plain = {node: dist for node, dist, _ in dijkstra_iter(small_graph, 0)}
        penalised = {node: dist for node, dist, _ in
                     dijkstra_iter(small_graph, 0, hop_penalty=1.0)}
        for node in plain:
            if node == 0:
                continue
            # Every reachable node is at least one hop away, so the penalised
            # distance grows by at least one unit of penalty.
            assert penalised[node] >= plain[node] + 1.0 - 1e-9

    def test_max_hops_limits_expansion(self, small_graph):
        nodes = {node for node, _, _ in dijkstra_iter(small_graph, 0, max_hops=1)}
        assert nodes == {0, 1, 3}

    def test_max_distance_truncates(self, small_graph):
        nodes = {node for node, _, _ in dijkstra_iter(small_graph, 0, max_distance=0.1)}
        assert nodes == {0, 1}  # only the weight-1.0 edge costs < 0.1


class TestShortestPathRow:
    def test_zero_cost_edges_settle_in_heap_order(self):
        # Weight-1.0 edges at no hop penalty cost nothing: 3, 1 and 0 all
        # sit at distance 0 and settle in the heap's pop order (source,
        # then each free neighbour as it is pushed), not by node id.
        graph = SocialGraph.from_edges(4, [(3, 1, 1.0), (1, 0, 1.0), (3, 2, 0.5)])
        nodes, dists, hops = shortest_path_row(graph, 3)
        assert nodes.tolist() == [3, 1, 0, 2]
        assert dists.tolist() == [0.0, 0.0, 0.0, edge_distance(0.5)]
        assert hops.tolist() == [0, 1, 2, 1]

    def test_hop_cap_keeps_the_shortest_path_hops(self):
        # Node 2's best path is the 2-hop zero-cost one, so at max_hops=2 the
        # free path on to 3 is one hop too long; 3 is still reached, over
        # the 1-hop path to 2 (0.5), at that path's cost and hops.
        graph = SocialGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.5), (2, 3, 1.0)])
        row = shortest_path_row(graph, 0, max_hops=2)
        assert [array.tolist() for array in row] == [
            [0, 1, 2, 3], [0.0, 0.0, 0.0, edge_distance(0.5)], [0, 1, 2, 2]]

    def test_negative_distance_cap_returns_nothing(self, small_graph):
        nodes, dists, hops = shortest_path_row(small_graph, 0, max_distance=-1.0)
        assert nodes.shape == dists.shape == hops.shape == (0,)

    def test_unknown_source_rejected(self, small_graph):
        with pytest.raises(UnknownUserError):
            shortest_path_row(small_graph, 42)


class TestShortestPath:
    def test_path_follows_strongest_route(self, small_graph):
        distance, path = shortest_path(small_graph, 0, 4)
        assert path == [0, 3, 4]
        assert distance == pytest.approx(edge_distance(0.8) + edge_distance(1.0))

    def test_source_equals_target(self, small_graph):
        distance, path = shortest_path(small_graph, 2, 2)
        assert distance == 0.0
        assert path == [2]

    def test_disconnected_returns_infinity(self, small_graph):
        distance, path = shortest_path(small_graph, 0, 5)
        assert math.isinf(distance)
        assert path == []


class TestComponents:
    def test_components(self, small_graph):
        components = connected_components(small_graph)
        assert sorted(map(len, components), reverse=True) == [5, 1]
        assert components[0] == [0, 1, 2, 3, 4]

    def test_largest_component(self, small_graph):
        assert largest_component(small_graph) == [0, 1, 2, 3, 4]
