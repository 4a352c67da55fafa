"""Landmark-sketch properties.

* the sketch never serves more than the exact shortest-path proximity
  (triangulation over-estimates distances, so it stays admissible for
  pruning), checked against an exact measure with no hop cap so only the
  exact measure's own floor can blur the comparison;
* landmark selection is a total order: equal-degree ties break by user id.
"""

import numpy as np

from repro.config import DatasetConfig, ProximityConfig
from repro.graph import SocialGraph
from repro.proximity.landmarks import LandmarkProximity, select_landmarks
from repro.proximity.shortest_path import PROXIMITY_FLOOR, ShortestPathProximity
from repro.workload import build_dataset


class TestLandmarkTriangulation:
    def _graphs(self):
        for seed in (1, 2, 3):
            dataset = build_dataset(DatasetConfig(
                name=f"tri-{seed}", num_users=40, num_items=60, num_tags=6,
                num_actions=300, graph_model="community", avg_degree=5.0,
                homophily=0.6, seed=seed))
            yield dataset.graph

    def test_sketch_never_exceeds_exact_proximity(self):
        for graph in self._graphs():
            exact = ShortestPathProximity(
                graph, ProximityConfig(max_hops=graph.num_users))
            for count in (1, 3, 8):
                sketch = LandmarkProximity(graph, ProximityConfig(),
                                           num_landmarks=count)
                for seeker in range(graph.num_users):
                    # Below the exact measure's floor it reports 0 while
                    # the sketch's own (lower) floor may keep a value.
                    ceiling = np.maximum(exact.vector_array(seeker),
                                         PROXIMITY_FLOOR)
                    assert np.all(sketch.vector_array(seeker)
                                  <= ceiling * (1.0 + 1e-9)), (
                        f"sketch over-estimated a proximity: "
                        f"seeker={seeker}, landmarks={count}")


class TestLandmarkSelectionDeterministic:
    def test_equal_degree_ties_break_by_user_id(self):
        # A 6-cycle: every user has degree 2, so the order is pure
        # tie-breaking and must be ascending user id.
        edges = [(i, (i + 1) % 6, 1.0) for i in range(6)]
        graph = SocialGraph.from_edges(6, edges)
        assert select_landmarks(graph, 3, strategy="degree") == [0, 1, 2]

    def test_selection_is_reproducible(self):
        for seed in (1, 4):
            dataset = build_dataset(DatasetConfig(
                name=f"det-{seed}", num_users=50, num_items=80, num_tags=6,
                num_actions=400, graph_model="barabasi-albert",
                avg_degree=6.0, seed=seed))
            first = select_landmarks(dataset.graph, 8, strategy="degree")
            second = select_landmarks(dataset.graph, 8, strategy="degree")
            assert first == second
            sketch_a = LandmarkProximity(dataset.graph, ProximityConfig(),
                                         num_landmarks=8)
            sketch_b = LandmarkProximity(dataset.graph, ProximityConfig(),
                                         num_landmarks=8)
            assert sketch_a.landmarks == sketch_b.landmarks == first
            for seeker in range(dataset.num_users):
                assert np.array_equal(sketch_a.vector_array(seeker),
                                      sketch_b.vector_array(seeker))
