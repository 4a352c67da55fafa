"""Tests for the CSR social graph and its builder."""

import math

import numpy as np
import pytest

from repro.errors import InvalidEdgeError, UnknownUserError
from repro.graph import SocialGraph, SocialGraphBuilder, edge_distance


class TestSocialGraphBuilder:
    def test_build_counts_nodes_and_edges(self, small_graph):
        assert small_graph.num_users == 6
        assert small_graph.num_edges == 5

    def test_duplicate_edge_keeps_maximum_weight(self):
        builder = SocialGraphBuilder(3)
        builder.add_edge(0, 1, 0.2)
        builder.add_edge(1, 0, 0.9)
        graph = builder.build()
        assert graph.num_edges == 1
        assert graph.edge_weight(0, 1) == pytest.approx(0.9)

    def test_self_loop_rejected(self):
        builder = SocialGraphBuilder(3)
        with pytest.raises(InvalidEdgeError):
            builder.add_edge(1, 1, 0.5)

    def test_weight_out_of_range_rejected(self):
        builder = SocialGraphBuilder(3)
        with pytest.raises(InvalidEdgeError):
            builder.add_edge(0, 1, 0.0)
        with pytest.raises(InvalidEdgeError):
            builder.add_edge(0, 1, 1.5)

    def test_unknown_endpoint_rejected(self):
        builder = SocialGraphBuilder(3)
        with pytest.raises(UnknownUserError):
            builder.add_edge(0, 7, 0.5)

    def test_has_edge_before_build(self):
        builder = SocialGraphBuilder(4)
        builder.add_edge(2, 3, 0.7)
        assert builder.has_edge(3, 2)
        assert not builder.has_edge(0, 1)

    def test_negative_num_users_rejected(self):
        with pytest.raises(InvalidEdgeError):
            SocialGraphBuilder(-1)


class TestSocialGraph:
    def test_neighbours_are_symmetric(self, small_graph):
        assert 1 in small_graph.neighbour_ids(0).tolist()
        assert 0 in small_graph.neighbour_ids(1).tolist()

    def test_degree(self, small_graph):
        assert small_graph.degree(1) == 3
        assert small_graph.degree(5) == 0

    def test_degrees_array_matches_point_lookups(self, small_graph):
        degrees = small_graph.degrees()
        assert degrees.tolist() == [small_graph.degree(u) for u in range(6)]

    def test_edge_distances_are_per_slot_and_cached(self, small_graph):
        distances, cheapest = small_graph.edge_distances()
        _, _, weights = small_graph.csr_arrays()
        assert distances.tolist() == [edge_distance(w) for w in weights.tolist()]
        assert cheapest.tolist() == [
            min(edge_distance(w) for w in small_graph.neighbours(u)[1].tolist())
            for u in range(5)] + [math.inf]   # user 5 is isolated
        assert small_graph.edge_distances()[0] is distances

    def test_edge_weight_absent_edge_is_zero(self, small_graph):
        assert small_graph.edge_weight(0, 5) == 0.0

    def test_edge_weight_present(self, small_graph):
        assert small_graph.edge_weight(1, 2) == pytest.approx(0.5)

    def test_has_edge(self, small_graph):
        assert small_graph.has_edge(3, 4)
        assert not small_graph.has_edge(2, 3)

    def test_validate_user_raises(self, small_graph):
        with pytest.raises(UnknownUserError):
            small_graph.validate_user(6)
        with pytest.raises(UnknownUserError):
            small_graph.validate_user(-1)

    def test_iter_edges_yields_each_edge_once(self, small_graph):
        edges = list(small_graph.iter_edges())
        assert len(edges) == small_graph.num_edges
        assert all(u < v for u, v, _ in edges)

    def test_from_edges_roundtrip_via_edge_list(self, small_graph):
        rebuilt = SocialGraph.from_edges(small_graph.num_users,
                                         small_graph.to_edge_list())
        assert rebuilt == small_graph

    def test_empty_graph(self):
        graph = SocialGraph.empty(4)
        assert graph.num_users == 4
        assert graph.num_edges == 0
        assert graph.degree(0) == 0

    def test_subgraph_induces_edges_and_remaps(self, small_graph):
        subgraph, remap = small_graph.subgraph([0, 1, 3])
        assert subgraph.num_users == 3
        # Edges 0-1 and 0-3 survive; 1-2, 1-4 and 3-4 are dropped.
        assert subgraph.num_edges == 2
        assert subgraph.has_edge(remap[0], remap[1])
        assert subgraph.has_edge(remap[0], remap[3])

    def test_subgraph_rejects_unknown_user(self, small_graph):
        with pytest.raises(UnknownUserError):
            small_graph.subgraph([0, 99])

    def test_memory_bytes_positive(self, small_graph):
        assert small_graph.memory_bytes() > 0

    def test_equality_differs_on_weights(self):
        a = SocialGraph.from_edges(2, [(0, 1, 0.5)])
        b = SocialGraph.from_edges(2, [(0, 1, 0.9)])
        assert a != b

    def test_inconsistent_csr_arrays_rejected(self):
        with pytest.raises(InvalidEdgeError):
            SocialGraph(2, np.array([0, 1]), np.zeros(1, dtype=np.int64),
                        np.zeros(1))
