"""Tests for the materialized proximity shard layer."""

import numpy as np
import pytest

from repro.config import ProximityConfig
from repro.graph import SocialGraphBuilder
from repro.proximity import MaterializedProximity
from repro.proximity.pagerank import PersonalizedPageRankProximity


class CountingPPR(PersonalizedPageRankProximity):
    """PPR that counts online vector computations."""

    def __init__(self, graph, config=None):
        super().__init__(graph, config)
        self.array_calls = 0

    def vector_array(self, seeker):
        self.array_calls += 1
        return super().vector_array(seeker)


@pytest.fixture()
def inner(synthetic_dataset):
    return CountingPPR(synthetic_dataset.graph, ProximityConfig(measure="ppr"))


@pytest.fixture()
def built(inner):
    materialized = MaterializedProximity(inner)
    materialized.build()
    return materialized


class TestBuild:
    def test_build_covers_every_user(self, built, synthetic_dataset):
        assert built.built
        assert built.num_rows() == synthetic_dataset.num_users
        assert sum(len(shard) for shard in built.shards()) == synthetic_dataset.num_users

    def test_rows_are_bit_identical_to_online(self, built, inner, synthetic_dataset):
        for seeker in range(0, synthetic_dataset.num_users, 7):
            np.testing.assert_array_equal(built.vector_array(seeker),
                                          inner.vector_array(seeker))

    def test_vector_dict_matches_online(self, built, inner):
        assert built.vector(3) == inner.vector(3)

    def test_served_from_shard_without_recompute(self, inner):
        materialized = MaterializedProximity(inner)
        materialized.build()
        calls_after_build = inner.array_calls
        materialized.vector_array(5)
        materialized.vector(5)
        materialized.proximity(5, 9)
        assert inner.array_calls == calls_after_build
        assert materialized.statistics.shard_hits == 3
        assert materialized.statistics.refinements == 0

    def test_point_lookup_matches_online(self, built, inner):
        for target in (0, 1, 17, 42):
            assert built.proximity(2, target) == pytest.approx(
                inner.proximity(2, target))
        assert built.proximity(4, 4) == 1.0


class TestBounds:
    def test_frontier_bound_equals_first_ranked(self, built):
        for seeker in (0, 5, 11):
            ranked = list(built.iter_ranked(seeker))
            bound = built.frontier_bound(seeker)
            if ranked:
                assert bound == ranked[0][1]
            else:
                assert bound == 0.0

    def test_unmaterialized_seeker_has_no_bound(self, inner):
        materialized = MaterializedProximity(inner)
        assert materialized.frontier_bound(0) is None


class TestLazyRefinement:
    def test_unbuilt_measure_refines_through_inner(self, inner):
        materialized = MaterializedProximity(inner)
        first = materialized.vector_array(4)
        second = materialized.vector_array(4)
        np.testing.assert_array_equal(first, second)
        # First call computes, second is served from the overlay.
        assert inner.array_calls == 1
        assert materialized.statistics.refinements == 1
        assert materialized.statistics.overlay_hits == 1

    def test_invalidate_marks_rows_stale(self, built, inner):
        calls = inner.array_calls
        assert built.invalidate([3]) == 1
        built.vector_array(3)          # refined online
        assert inner.array_calls == calls + 1
        built.vector_array(2)          # untouched seeker still shard-served
        assert inner.array_calls == calls + 1

    def test_rebind_drops_all_shards(self, built, synthetic_dataset):
        builder = SocialGraphBuilder(synthetic_dataset.graph.num_users)
        for u, v, w in synthetic_dataset.graph.iter_edges():
            builder.add_edge(u, v, w)
        built.rebind(builder.build())
        assert not built.built
        # Serving still works through lazy refinement on the new graph.
        assert built.vector_array(0).shape[0] == synthetic_dataset.graph.num_users
        assert built.statistics.refinements >= 1


class TestIntrospection:
    def test_cluster_of_matches_labels(self, built):
        labels = built.labels()
        for seeker in (0, 9, 23):
            assert built.cluster_of(seeker) == labels[seeker]

    def test_memory_and_entries_positive(self, built):
        assert built.num_entries() > 0
        assert built.memory_bytes() > 0

    def test_partial_build(self, inner):
        materialized = MaterializedProximity(inner)
        materialized.build(seekers=[0, 1, 2])
        assert materialized.num_rows() == 3
        assert materialized.frontier_bound(0) is not None
        assert materialized.frontier_bound(30) is None

    def test_statistics_to_dict(self, built):
        built.vector_array(0)
        stats = built.statistics.to_dict()
        assert stats["shard_hits"] == 1
        assert stats["lookups"] == 1


class TestIncrementalMaintenance:
    """Updates invalidate per cluster and repair in place, never wholesale."""

    def test_stale_member_refines_fresh_member_keeps_its_row(self, built):
        shard = next(s for s in built.shards() if len(s) >= 2)
        stale, fresh = int(shard.members[0]), int(shard.members[1])
        built.invalidate([stale])
        built.vector_array(fresh)
        assert built.statistics.shard_hits == 1
        built.vector_array(stale)
        assert built.statistics.refinements == 1

    def test_all_stale_cluster_stays_repairable(self, built, inner):
        shard = built.shards()[0]
        members = shard.members.tolist()
        rows_before = built.num_rows()
        built.invalidate(members)
        # Rows stay in storage (inert: no lookups served).
        assert built.num_rows() == rows_before
        repaired = built.repair(members)
        assert repaired == len(members)
        for member in members:
            np.testing.assert_array_equal(built.vector_array(member),
                                          inner.vector_array(member))

    def test_repair_restores_shard_serving(self, built, inner):
        victim = int(built.shards()[0].members[0])
        built.invalidate([victim])
        calls_before = inner.array_calls
        assert built.repair([victim]) == 1
        assert inner.array_calls == calls_before + 1
        assert built.statistics.repairs == 1
        # Serving the repaired seeker is a shard hit, not a refinement.
        hits_before = built.statistics.shard_hits
        built.vector_array(victim)
        assert built.statistics.shard_hits == hits_before + 1

    def test_repair_ignores_unmaterialized_seekers(self, built):
        assert built.repair([10_000]) == 0

    def test_graph_updated_keeps_shards(self, built, inner, synthetic_dataset):
        graph = synthetic_dataset.graph
        builder = SocialGraphBuilder(graph.num_users)
        for u, v, w in graph.iter_edges():
            builder.add_edge(u, v, w)
        builder.add_edge(0, graph.num_users - 1, 0.7)
        new_graph = builder.build()
        rows_before = built.num_rows()
        affected = {0, graph.num_users - 1}
        built.graph_updated(new_graph, affected)
        assert built.built
        assert built.num_rows() == rows_before
        assert built.graph is new_graph
        assert inner.graph is new_graph
        # Affected seekers refine on the new graph; the rest still shard-hit.
        for seeker in affected:
            np.testing.assert_array_equal(built.vector_array(seeker),
                                          inner.vector_array(seeker))

    def test_graph_updated_labels_new_users(self, built, synthetic_dataset):
        graph = synthetic_dataset.graph
        grown = graph.num_users + 2
        builder = SocialGraphBuilder(grown)
        for u, v, w in graph.iter_edges():
            builder.add_edge(u, v, w)
        new_graph = builder.build()
        built.graph_updated(new_graph, ())
        labels = built.labels()
        assert len(labels) == grown
        # New users land in fresh singleton clusters.
        assert labels[grown - 1] != labels[0]
        assert labels[grown - 1] != labels[grown - 2]
