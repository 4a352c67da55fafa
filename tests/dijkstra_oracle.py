"""Reference single-source Dijkstra: the scalar ``heapq`` loop.

``repro.graph.traversal.shortest_path_row`` settles nodes in batches over
numpy arrays; this is the one-pop-per-node loop it replaced, kept verbatim
as the oracle the equivalence tests compare it with value for value.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.graph import SocialGraph, edge_distance


def dijkstra_iter(graph: SocialGraph, source: int,
                  max_distance: Optional[float] = None,
                  max_hops: Optional[int] = None,
                  hop_penalty: float = 0.0
                  ) -> Iterator[Tuple[int, float, int]]:
    """Yield ``(node, distance, hops)`` in non-decreasing distance order."""
    graph.validate_user(source)
    heap: List[Tuple[float, int, int]] = [(0.0, source, 0)]
    settled: Dict[int, float] = {}
    while heap:
        dist, node, hops = heapq.heappop(heap)
        if node in settled:
            continue
        if max_distance is not None and dist > max_distance:
            return
        settled[node] = dist
        yield node, dist, hops
        if max_hops is not None and hops >= max_hops:
            continue
        nbrs, weights = graph.neighbours(node)
        for v, w in zip(nbrs.tolist(), weights.tolist()):
            if v not in settled:
                heapq.heappush(
                    heap, (dist + edge_distance(w) + hop_penalty, int(v), hops + 1)
                )


def ranked_proximity(graph: SocialGraph, seeker: int, decay: float,
                     max_hops: Optional[int], floor: float = 1e-4
                     ) -> List[Tuple[int, float]]:
    """Shortest-path proximity's ranked row, streamed from the loop above."""
    ranked: List[Tuple[int, float]] = []
    for node, dist, _hops in dijkstra_iter(
        graph, seeker,
        max_distance=-math.log(floor),
        max_hops=max_hops,
        hop_penalty=-math.log(max(decay, 1e-12)),
    ):
        if node == seeker:
            continue
        proximity = math.exp(-dist)
        if proximity < floor:
            break
        ranked.append((node, min(1.0, proximity)))
    return ranked
