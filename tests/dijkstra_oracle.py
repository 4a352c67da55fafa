"""Reference single-source shortest paths: scalar loops over the graph.

``repro.graph.traversal.shortest_path_row`` settles nodes in batches over
numpy arrays.  Uncapped, the oracle is the one-pop-per-node ``heapq`` loop
it replaced.  Under a hop cap it is a table of walks by exact hop count:
layer ``h`` holds, per node, the least distance over walks of exactly ``h``
hops, and a node's row entry is the least over layers ``0..max_hops``.
The equivalence tests compare the row with these value for value.
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
    if max_hops is not None:
        yield from _hop_layers(graph, source, max_distance, max_hops, hop_penalty)
        return
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
        nbrs, weights = graph.neighbours(node)
        for v, w in zip(nbrs.tolist(), weights.tolist()):
            if v not in settled:
                heapq.heappush(
                    heap, (dist + edge_distance(w) + hop_penalty, int(v), hops + 1)
                )


def _hop_layers(graph: SocialGraph, source: int, max_distance: Optional[float],
                max_hops: int, hop_penalty: float
                ) -> Iterator[Tuple[int, float, int]]:
    """The capped row: the source, then ``(dist, node)`` order."""
    if max_distance is not None and max_distance < 0.0:
        return
    best: Dict[int, Tuple[float, int]] = {source: (0.0, 0)}
    layer: Dict[int, float] = {source: 0.0}
    for hop in range(1, max_hops + 1):
        next_layer: Dict[int, float] = {}
        for node, dist in layer.items():
            nbrs, weights = graph.neighbours(node)
            for v, w in zip(nbrs.tolist(), weights.tolist()):
                offered = dist + edge_distance(w) + hop_penalty
                if max_distance is not None and offered > max_distance:
                    continue
                if offered < next_layer.get(int(v), math.inf):
                    next_layer[int(v)] = offered
        for node, dist in next_layer.items():
            if dist < best.get(node, (math.inf, 0))[0]:
                best[node] = (dist, hop)
        layer = next_layer
    yield source, 0.0, 0
    for dist, node, hops in sorted((dist, node, hops)
                                   for node, (dist, hops) in best.items()
                                   if node != source):
        yield node, dist, hops


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
