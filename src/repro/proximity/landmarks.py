"""Landmark-based proximity sketches.

Computing exact shortest-path proximity from every seeker is wasteful when
queries arrive from many different users.  The landmark sketch picks a small
set of high-degree *landmark* users, precomputes exact distances from each
landmark to every user (one Dijkstra per landmark), and approximates the
distance between any pair by triangulation through the best landmark:

``dist(s, v) ≈ min_L dist(s, L) + dist(L, v)``

This over-estimates distances (under-estimates proximity), so it is an
admissible approximation for pruning.  The sketch is the reconstruction of
the "precomputation vs. on-line computation" trade-off the paper family
discusses.

The sketch state is two dense arrays — ``(num_landmarks, num_users)``
distances and hop counts — so a seeker's whole estimate vector is a few
vectorized ops over landmark rows.  Like every measure with per-graph
state, the sketch is rebuilt on :meth:`~ProximityMeasure.rebind`, so a
served vector always equals a sketch built fresh on the current graph.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..config import ProximityConfig
from ..graph import SocialGraph
from ..graph.traversal import dijkstra_iter
from .base import ProximityMeasure, register_proximity

#: Sketch proximities at or below this value are treated as zero (direct
#: friends are exempt: their exact value is always served).
SKETCH_FLOOR = 1e-6


def select_landmarks(graph: SocialGraph, num_landmarks: int, seed: int = 0,
                     strategy: str = "degree") -> List[int]:
    """Pick landmark users.

    ``"degree"`` picks the highest-degree users (good coverage of hubs),
    breaking degree ties by ascending user id — a total order, so the
    landmark set (and everything derived from it, including arena bytes)
    is reproducible across numpy versions.  ``"random"`` samples uniformly.
    """
    num_landmarks = max(1, min(num_landmarks, graph.num_users))
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return sorted(int(u) for u in rng.choice(graph.num_users, size=num_landmarks,
                                                 replace=False))
    degrees = graph.degrees()
    # np.lexsort is always stable; the last key is primary, so this orders
    # by (-degree, user id) exactly.
    order = np.lexsort((np.arange(degrees.shape[0], dtype=np.int64),
                        -degrees))
    return [int(u) for u in order[:num_landmarks].tolist()]


@register_proximity("landmark")
class LandmarkProximity(ProximityMeasure):
    """Triangulated shortest-path proximity through precomputed landmarks.

    Parameters
    ----------
    graph / config:
        The usual measure pair; ``config.decay`` sets the per-hop penalty.
    num_landmarks:
        Sketch size (default 16), the highest-degree users
        (:func:`select_landmarks`).
    """

    def __init__(self, graph: SocialGraph, config: Optional[ProximityConfig] = None,
                 num_landmarks: int = 16) -> None:
        super().__init__(graph, config)
        self._hop_penalty = -math.log(max(self.config.decay, 1e-12))
        self._num_landmarks = max(1, int(num_landmarks))
        self._on_graph_changed()

    # ------------------------------------------------------------------ #
    # Sketch construction
    # ------------------------------------------------------------------ #

    def _on_graph_changed(self) -> None:
        graph = self.graph
        landmarks = select_landmarks(graph, self._num_landmarks)
        num_users = graph.num_users
        distances = np.full((len(landmarks), num_users), np.inf,
                            dtype=np.float64)
        hops = np.zeros((len(landmarks), num_users), dtype=np.int64)
        # Exact (distance, hops) rows from every landmark; the one-off
        # precomputation the sketch trades for cheap per-query estimates.
        for row, landmark in enumerate(landmarks):
            for node, dist, hop in dijkstra_iter(graph, landmark):
                distances[row, node] = dist
                hops[row, node] = hop
        self._landmark_ids = np.array(landmarks, dtype=np.int64)
        self._distances = distances
        self._hops = hops

    @property
    def landmarks(self) -> List[int]:
        """The selected landmark user ids."""
        return [int(u) for u in self._landmark_ids.tolist()]

    @property
    def num_landmarks(self) -> int:
        """Number of landmarks in the sketch."""
        return int(self._landmark_ids.shape[0])

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #

    def vector_array(self, seeker: int) -> np.ndarray:
        """Dense triangulated proximity estimates, one vectorized pass.

        The per-target estimate replays the scalar rule exactly: best
        landmark by first-minimum summed distance, per-hop decay charged on
        the (over-counted) estimated hop count, a small floor, and exact
        values for direct friends.
        """
        self.graph.validate_user(seeker)
        num_users = self.graph.num_users
        seeker_distances = self._distances[:, seeker]
        estimates = seeker_distances[:, None] + self._distances
        best = np.argmin(estimates, axis=0)
        columns = np.arange(num_users, dtype=np.int64)
        distance = estimates[best, columns]
        hop_counts = self._hops[:, seeker][best] + self._hops[best, columns]
        # Charge the per-hop decay on the estimated (over-counted) hop
        # count so the sketch never exceeds the exact shortest-path
        # proximity — an admissible under-estimate.
        penalty = np.maximum(hop_counts, 1) * self._hop_penalty
        proximity = np.exp(-(distance + penalty))
        dense = np.where(proximity > SKETCH_FLOOR,
                         np.minimum(proximity, 1.0), 0.0)
        dense[seeker] = 0.0
        # Exact proximity for direct friends: triangulation is needlessly
        # pessimistic one hop away and direct ties matter most.
        nbrs, weights = self.graph.neighbours(seeker)
        if nbrs.shape[0]:
            direct = np.exp(-(-np.log(np.maximum(weights, 1e-12))
                              + self._hop_penalty))
            dense[nbrs] = np.maximum(dense[nbrs], np.minimum(direct, 1.0))
        return dense

    def vector(self, seeker: int) -> Dict[int, float]:
        """Estimate proximity to every user reachable through some landmark."""
        dense = self.vector_array(seeker)
        nonzero = np.nonzero(dense)[0]
        return {int(user): float(dense[user]) for user in nonzero}

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Memory held by the dense sketch arrays."""
        return (self._landmark_ids.nbytes + self._distances.nbytes
                + self._hops.nbytes)
