"""Shortest-path (multiplicative tie strength) proximity.

The proximity of ``target`` to ``seeker`` is the maximum, over all paths
between them, of the product of edge weights along the path, additionally
attenuated by ``decay`` per hop:

``prox(s, v) = max_path  decay^{len(path)} · Π_e w(e)``

This is the classical trust-propagation model: close strong ties help a lot,
distant weak ties barely at all.  The per-hop decay is folded into the edge
distances, so one :func:`~repro.graph.traversal.shortest_path_row` returns
a seeker's whole row already in non-increasing proximity order.  The ranked
stream, the dense array, the dict and the point lookup all read that row.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..config import ProximityConfig
from ..graph import SocialGraph
from ..graph.traversal import edge_distance, shortest_path_row
from .base import ProximityMeasure, register_proximity

#: Proximities below this value are treated as zero: the ranked row ends
#: at the first one.
PROXIMITY_FLOOR = 1e-4


@register_proximity("shortest-path")
class ShortestPathProximity(ProximityMeasure):
    """Decay-attenuated best-path product proximity."""

    def __init__(self, graph: SocialGraph, config: Optional[ProximityConfig] = None) -> None:
        super().__init__(graph, config)
        self._hop_penalty = -math.log(max(self.config.decay, 1e-12))
        self._max_distance = -math.log(PROXIMITY_FLOOR)

    def _ranked_row(self, seeker: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(users, proximities)`` in non-increasing proximity order.

        The seeker is excluded.  Proximities come from :func:`math.exp`,
        which rounds some distances differently from ``np.exp``.
        """
        nodes, dists, _hops = shortest_path_row(
            self.graph, seeker,
            max_distance=self._max_distance,
            max_hops=self.config.max_hops,
            hop_penalty=self._hop_penalty,
        )
        values = np.fromiter(map(math.exp, (-dists).tolist()), dtype=np.float64,
                             count=dists.shape[0])
        # nodes[0] is the seeker; the row ends at the first value under
        # the floor (exp of a distance at the cap can round to just under).
        under = np.flatnonzero(values < PROXIMITY_FLOOR)
        end = int(under[0]) if under.shape[0] else values.shape[0]
        return nodes[1:end], np.minimum(values[1:end], 1.0)

    def iter_ranked(self, seeker: int) -> Iterator[Tuple[int, float]]:
        """Yield users in non-increasing proximity order (the row's settle order)."""
        users, values = self._ranked_row(seeker)
        yield from zip(users.tolist(), values.tolist())

    def vector_array(self, seeker: int) -> np.ndarray:
        """Dense row: the ranked values scattered into zeros."""
        users, values = self._ranked_row(seeker)
        dense = np.zeros(self.graph.num_users, dtype=np.float64)
        dense[users] = values
        return dense

    def vector(self, seeker: int) -> Dict[int, float]:
        """Dict view of the ranked row, in ranked order."""
        users, values = self._ranked_row(seeker)
        return dict(zip(users.tolist(), values.tolist()))

    def proximity(self, seeker: int, target: int) -> float:
        """Point lookup in the seeker's row."""
        self.graph.validate_user(seeker)
        self.graph.validate_user(target)
        if seeker == target:
            return 1.0
        users, values = self._ranked_row(seeker)
        hit = np.flatnonzero(users == target)
        return float(values[hit[0]]) if hit.shape[0] else 0.0

    @staticmethod
    def path_proximity(weights: Iterable[float], decay: float = 0.5) -> float:
        """Proximity of an explicit path given its edge weights (helper for tests)."""
        weight_list = list(weights)
        distance = sum(edge_distance(w) for w in weight_list)
        distance += len(weight_list) * -math.log(max(decay, 1e-12))
        return math.exp(-distance)
