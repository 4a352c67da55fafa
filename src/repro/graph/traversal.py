"""Graph traversal primitives: BFS, Dijkstra, bounded expansion, components.

These are the building blocks of the proximity measures.  Distances on the
weighted graph are defined as the sum of ``-log(weight)`` along a path, so
that the corresponding *proximity* (``exp(-distance)``) is the product of
tie strengths — a standard multiplicative trust/propagation model.

:func:`shortest_path_row` is the one single-source shortest-path
primitive: it settles Dijkstra's nodes in batches over the CSR arrays (or,
under a hop cap, relaxes hop by hop) and returns the whole row as numpy
arrays.  :func:`dijkstra_iter` and
:func:`dijkstra` are views over it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .graph import SocialGraph


def edge_distance(weight: float) -> float:
    """Convert a tie strength in (0, 1] to an additive distance."""
    return -math.log(max(weight, 1e-12))


def distance_to_proximity(distance: float) -> float:
    """Convert an additive distance back to a multiplicative proximity."""
    return math.exp(-distance)


def bfs_levels(graph: SocialGraph, source: int,
               max_hops: Optional[int] = None) -> Dict[int, int]:
    """Return the hop distance of every node reachable from ``source``.

    Parameters
    ----------
    graph:
        Social graph to traverse.
    source:
        Start node.
    max_hops:
        When given, nodes farther than this many hops are not returned.
    """
    graph.validate_user(source)
    levels = {source: 0}
    frontier = [source]
    hop = 0
    while frontier:
        if max_hops is not None and hop >= max_hops:
            break
        next_frontier: List[int] = []
        for node in frontier:
            nbrs, _ = graph.neighbours(node)
            for v in nbrs.tolist():
                if v not in levels:
                    levels[v] = hop + 1
                    next_frontier.append(v)
        frontier = next_frontier
        hop += 1
    return levels


def _csr_offers(offsets: np.ndarray, neighbours: np.ndarray,
                slot_distances: np.ndarray, best: np.ndarray,
                batch: np.ndarray, hop_penalty: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(targets, offered distances, per-slot source index)`` for ``batch``.

    Every CSR slot of the batch, block after block, in one gather; an
    offer is ``(best[u] + slot distance) + hop_penalty``, summed in path
    order like the scalar definition.
    """
    starts = offsets[batch]
    counts = offsets[batch + 1] - starts
    total = int(counts.sum())
    slots = (np.arange(total, dtype=np.int64)
             + np.repeat(starts - (np.cumsum(counts) - counts), counts))
    offered = (np.repeat(best[batch], counts) + slot_distances[slots]) + hop_penalty
    return neighbours[slots], offered, counts


def _hop_bounded_row(graph: SocialGraph, source: int,
                     max_distance: Optional[float], max_hops: int,
                     hop_penalty: float
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The capped row: the least distance over paths of at most ``max_hops`` hops.

    Round ``h`` relaxes the out-edges of every node whose distance fell in
    round ``h - 1``, reading the distances as they stood before the round,
    so after round ``h`` each distance is the least over paths of at most
    ``h`` hops.  A node's hops are the round of its last fall: the fewest
    among its best capped paths.  The rounds stop at ``max_hops`` or when
    one changes nothing.
    """
    offsets, neighbours, _ = graph.csr_arrays()
    slot_distances, _ = graph.edge_distances()
    best = np.full(graph.num_users, np.inf, dtype=np.float64)
    best_hops = np.zeros(graph.num_users, dtype=np.int64)
    best[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    for hop in range(1, max_hops + 1):
        targets, offered, _ = _csr_offers(offsets, neighbours, slot_distances,
                                          best, frontier, hop_penalty)
        if max_distance is not None:
            keep = offered <= max_distance
            targets, offered = targets[keep], offered[keep]
        if not targets.shape[0]:
            break
        candidate = np.full(graph.num_users, np.inf, dtype=np.float64)
        np.minimum.at(candidate, targets, offered)
        frontier = np.flatnonzero(candidate < best)
        if not frontier.shape[0]:
            break
        best[frontier] = candidate[frontier]
        best_hops[frontier] = hop
    others = np.flatnonzero(np.isfinite(best))
    others = others[others != source]
    others = others[np.lexsort((others, best[others]))]
    nodes = np.concatenate((np.array([source], dtype=np.int64), others))
    return nodes, best[nodes], best_hops[nodes]


def shortest_path_row(graph: SocialGraph, source: int,
                      max_distance: Optional[float] = None,
                      max_hops: Optional[int] = None,
                      hop_penalty: float = 0.0
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-source shortest paths from ``source`` as ``(nodes, dists, hops)``.

    The arrays list every reached node with its distance (the sum of
    ``edge_distance(w) + hop_penalty`` along the best path, float64, added
    in path order) and the hop count of that path, the fewest among the
    best paths.  Nodes farther than ``max_distance`` are not returned, and
    ``nodes[0]`` is always ``source``.

    With ``max_hops`` the best path is the best of at most ``max_hops``
    hops, found exactly by rounds of relaxation (:func:`_hop_bounded_row`),
    and the nodes after the source come by ``(dist, node)``.

    Without it the arrays are exactly what a ``heapq`` Dijkstra over
    ``(dist, node, hops)`` entries pops: distances never decrease, and
    equal distances come by node id, except that a node reached over a
    zero-cost edge comes after the node it was reached from.  Instead of
    one pop per node, each round settles every open node whose tentative
    distance is strictly below ``L``, the smallest distance any open node
    could offer a neighbour (``best[u] + cheapest_out[u] + hop_penalty``;
    the "OUT criterion" of Crauser et al.).  No later candidate can reach
    or tie such a node, so its distance and hops are final.  When nothing
    is below ``L`` (only possible with zero-cost edges: weight 1.0 and
    ``hop_penalty`` 0) the round settles the smallest ``(dist, node)``
    alone, which is the heap's next pop.  Each round relaxes all out-edges
    of its batch in one CSR gather and keeps, per target, the least
    ``(dist, hops)``.

    ``hop_penalty`` must be non-negative.
    """
    graph.validate_user(source)
    if max_distance is not None and 0.0 > max_distance:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.int64))
    if max_hops is not None:
        return _hop_bounded_row(graph, source, max_distance, max_hops, hop_penalty)
    offsets, neighbours, _ = graph.csr_arrays()
    slot_distances, cheapest = graph.edge_distances()
    best = np.full(graph.num_users, np.inf, dtype=np.float64)
    best_hops = np.zeros(graph.num_users, dtype=np.int64)
    settled = np.zeros(graph.num_users, dtype=bool)
    best[source] = 0.0
    open_nodes = np.array([source], dtype=np.int64)
    batches: List[np.ndarray] = []
    while open_nodes.shape[0]:
        dists = best[open_nodes]
        bound = ((dists + cheapest[open_nodes]) + hop_penalty).min()
        below = dists < bound
        if not below.any():
            # Zero-cost edges: settle the heap's next pop on its own.
            below[np.lexsort((open_nodes, dists))[0]] = True
        batch = open_nodes[below]
        open_nodes = open_nodes[~below]
        settled[batch] = True
        batches.append(batch)
        targets, offered, counts = _csr_offers(offsets, neighbours, slot_distances,
                                               best, batch, hop_penalty)
        if not targets.shape[0]:
            continue
        offered_hops = np.repeat(best_hops[batch] + 1, counts)
        keep = ~settled[targets]
        if max_distance is not None:
            keep &= offered <= max_distance
        targets, offered, offered_hops = targets[keep], offered[keep], offered_hops[keep]
        # Per target, the least (dist, hops) over the offers and its
        # current tentative entry.
        previous = best[targets]
        np.minimum.at(best, targets, offered)
        winners = best[targets]
        improved = winners < previous
        best_hops[targets[improved]] = np.iinfo(np.int64).max
        tied = offered == winners
        np.minimum.at(best_hops, targets[tied], offered_hops[tied])
        reached = np.unique(targets[np.isinf(previous)])
        open_nodes = np.concatenate((open_nodes, reached))
    nodes = np.concatenate(batches)
    rounds = np.repeat(np.arange(len(batches), dtype=np.int64),
                       [batch.shape[0] for batch in batches])
    order = np.lexsort((nodes, best[nodes], rounds))
    nodes = nodes[order]
    return nodes, best[nodes], best_hops[nodes]


def dijkstra(graph: SocialGraph, source: int,
             max_distance: Optional[float] = None,
             max_hops: Optional[int] = None) -> Dict[int, float]:
    """Single-source shortest (multiplicative) distances from ``source``.

    Returns a mapping ``node -> distance`` where distance is the sum of
    ``-log(weight)`` along the best path.  The source has distance 0.
    """
    nodes, dists, _ = shortest_path_row(graph, source, max_distance=max_distance,
                                        max_hops=max_hops)
    return dict(zip(nodes.tolist(), dists.tolist()))


def dijkstra_iter(graph: SocialGraph, source: int,
                  max_distance: Optional[float] = None,
                  max_hops: Optional[int] = None,
                  hop_penalty: float = 0.0
                  ) -> Iterator[Tuple[int, float, int]]:
    """Yield ``(node, distance, hops)`` in non-decreasing distance order.

    A view over :func:`shortest_path_row`, which computes the whole row on
    the first step.  ``hop_penalty`` is an additive distance charged per
    traversed edge; it implements per-hop decay while preserving the
    non-decreasing yield order.
    """
    nodes, dists, hops = shortest_path_row(graph, source, max_distance=max_distance,
                                           max_hops=max_hops, hop_penalty=hop_penalty)
    yield from zip(nodes.tolist(), dists.tolist(), hops.tolist())


def shortest_path(graph: SocialGraph, source: int, target: int
                  ) -> Tuple[float, List[int]]:
    """Return ``(distance, path)`` between two nodes.

    ``distance`` is ``math.inf`` and ``path`` empty when the nodes are
    disconnected.
    """
    graph.validate_user(source)
    graph.validate_user(target)
    heap: List[Tuple[float, int]] = [(0.0, source)]
    parents: Dict[int, int] = {}
    best: Dict[int, float] = {source: 0.0}
    settled: Dict[int, float] = {}
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = dist
        if node == target:
            break
        nbrs, weights = graph.neighbours(node)
        for v, w in zip(nbrs.tolist(), weights.tolist()):
            v = int(v)
            candidate = dist + edge_distance(w)
            if v not in settled and candidate < best.get(v, math.inf):
                best[v] = candidate
                parents[v] = node
                heapq.heappush(heap, (candidate, v))
    if target not in settled:
        return math.inf, []
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return settled[target], path


def connected_components(graph: SocialGraph) -> List[List[int]]:
    """Return the connected components as lists of node ids (largest first)."""
    seen = [False] * graph.num_users
    components: List[List[int]] = []
    for start in range(graph.num_users):
        if seen[start]:
            continue
        component = []
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            component.append(node)
            nbrs, _ = graph.neighbours(node)
            for v in nbrs.tolist():
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return components


def largest_component(graph: SocialGraph) -> List[int]:
    """Return the node ids of the largest connected component."""
    components = connected_components(graph)
    return components[0] if components else []


def reachable_within(graph: SocialGraph, source: int, hops: int) -> List[int]:
    """Return all nodes within ``hops`` hops of ``source`` (including it)."""
    return sorted(bfs_levels(graph, source, max_hops=hops))
