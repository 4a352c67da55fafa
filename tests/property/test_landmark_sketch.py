"""Landmark-sketch properties.

* landmark triangulation never under-estimates a distance (the sketch
  stays admissible for pruning), checked at the distance level where no
  floor or hop-cap truncation can blur the comparison;
* landmark selection is a total order: equal-degree ties break by user id.
"""

import numpy as np

from repro.config import DatasetConfig, ProximityConfig
from repro.graph import SocialGraph
from repro.graph.traversal import dijkstra_iter
from repro.proximity.landmarks import LandmarkProximity, select_landmarks
from repro.workload import build_dataset


class TestLandmarkTriangulation:
    def _graphs(self):
        for seed in (1, 2, 3):
            dataset = build_dataset(DatasetConfig(
                name=f"tri-{seed}", num_users=40, num_items=60, num_tags=6,
                num_actions=300, graph_model="community", avg_degree=5.0,
                homophily=0.6, seed=seed))
            yield dataset.graph

    def test_triangulated_distance_never_below_true_distance(self):
        for graph in self._graphs():
            n = graph.num_users
            for count in (1, 3, 8):
                sketch = LandmarkProximity(graph, ProximityConfig(),
                                           num_landmarks=count)
                _ids, distances, _hops = sketch.sketch_arrays()
                for seeker in range(n):
                    true = np.full(n, np.inf, dtype=np.float64)
                    for node, dist, _hop in dijkstra_iter(graph, seeker):
                        true[node] = dist
                    estimated = (distances[:, seeker][:, None]
                                 + distances).min(axis=0)
                    # inf estimates (unreachable through any landmark) are
                    # trivially admissible over-estimates.
                    assert np.all(estimated >= true - 1e-9), (
                        f"triangulation under-estimated a distance: "
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
            for left, right in zip(sketch_a.sketch_arrays(),
                                   sketch_b.sketch_arrays()):
                assert np.array_equal(left, right)
