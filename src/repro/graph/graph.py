"""Compressed-sparse-row social graph.

The social graph is the substrate every social-aware algorithm walks at
query time, so it is stored in a cache-friendly CSR layout backed by numpy
arrays: one offsets array of length ``num_users + 1`` plus parallel
neighbour/weight arrays.  Graphs are undirected and weighted; weights model
tie strength and must lie in ``(0, 1]``.

Two entry points are provided:

* :class:`SocialGraphBuilder` — incremental construction from edges.
* :meth:`SocialGraph.from_edges` — one-shot construction from an iterable.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidEdgeError, UnknownUserError

Edge = Tuple[int, int, float]


def check_edge(u: int, v: int, weight: float, num_users: int) -> None:
    """Raise unless ``{u, v}`` is a valid edge of a ``num_users``-node graph.

    Endpoints must be nodes, self loops are rejected and the weight must
    lie in ``(0, 1]`` — checked in that order, so every construction path
    reports the same error for the same bad edge.
    """
    if not 0 <= u < num_users:
        raise UnknownUserError(u, num_users)
    if not 0 <= v < num_users:
        raise UnknownUserError(v, num_users)
    if u == v:
        raise InvalidEdgeError(f"self loops are not allowed (user {u})")
    if not 0.0 < weight <= 1.0:
        raise InvalidEdgeError(
            f"edge weight must be in (0, 1], got {weight} for edge ({u}, {v})"
        )


class SocialGraph:
    """Undirected, weighted social graph in CSR form.

    Parameters
    ----------
    num_users:
        Number of nodes; node ids are ``0 .. num_users - 1``.
    offsets, neighbours, weights:
        CSR arrays.  ``neighbours[offsets[u]:offsets[u + 1]]`` are the
        neighbours of ``u`` with matching ``weights`` entries.

    Instances are immutable once constructed; use :class:`SocialGraphBuilder`
    to assemble one incrementally.
    """

    __slots__ = ("_num_users", "_offsets", "_neighbours", "_weights",
                 "_edge_distances")

    def __init__(self, num_users: int, offsets: np.ndarray,
                 neighbours: np.ndarray, weights: np.ndarray) -> None:
        if num_users < 0:
            raise InvalidEdgeError(f"num_users must be non-negative, got {num_users}")
        if offsets.shape[0] != num_users + 1:
            raise InvalidEdgeError(
                f"offsets must have length num_users + 1 = {num_users + 1}, "
                f"got {offsets.shape[0]}"
            )
        if neighbours.shape[0] != weights.shape[0]:
            raise InvalidEdgeError("neighbours and weights must have equal length")
        if offsets[-1] != neighbours.shape[0]:
            raise InvalidEdgeError("offsets[-1] must equal the number of directed edges")
        self._num_users = int(num_users)
        self._offsets = offsets
        self._neighbours = neighbours
        self._weights = weights
        self._edge_distances: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, num_users: int, edges: Iterable[Edge]) -> "SocialGraph":
        """Build a graph from ``(u, v, weight)`` triples.

        Each undirected edge should appear once; both directions are stored
        internally.  Duplicate edges keep the maximum weight.
        """
        builder = SocialGraphBuilder(num_users)
        for u, v, w in edges:
            builder.add_edge(u, v, w)
        return builder.build()

    @classmethod
    def empty(cls, num_users: int) -> "SocialGraph":
        """Return a graph with ``num_users`` nodes and no edges."""
        return cls(
            num_users,
            np.zeros(num_users + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    def with_edges(self, edges: Iterable[Edge]
                   ) -> Tuple["SocialGraph", int, int]:
        """This graph plus ``edges``, as ``(graph, edges_added, edges_raised)``.

        The result equals re-adding every existing edge and then ``edges``
        to a :class:`SocialGraphBuilder`: a new edge is inserted, a
        duplicate keeps the maximum weight.  ``edges_raised`` counts the
        existing edges whose weight went up.  When nothing changed the
        graph itself is returned.  The batch is validated edge by edge, in
        order, before anything is built.

        The merge is array-native: the CSR slots are keyed
        ``source * num_users + neighbour`` (ascending, because rows are
        neighbour-sorted), the doubled batch is deduplicated to its maximum
        weight per key and located with ``searchsorted``; existing slots
        take the ``np.maximum`` of the weights, new ones go in with
        ``np.insert`` and the offsets are rebuilt from a ``bincount``.
        """
        edges = list(edges)
        for u, v, w in edges:
            check_edge(u, v, w, self._num_users)
        if not edges:
            return self, 0, 0
        n = self._num_users
        us = np.array([edge[0] for edge in edges], dtype=np.int64)
        vs = np.array([edge[1] for edge in edges], dtype=np.int64)
        ws = np.array([edge[2] for edge in edges], dtype=np.float64)
        keys = np.concatenate([us * n + vs, vs * n + us])
        batch_weights = np.concatenate([ws, ws])
        order = np.lexsort((-batch_weights, keys))
        keys = keys[order]
        batch_weights = batch_weights[order]
        first = np.ones(keys.shape[0], dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        batch_weights = batch_weights[first]

        degrees = np.diff(self._offsets)
        slot_keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * n \
            + self._neighbours
        slots = np.searchsorted(slot_keys, keys)
        found = slots < slot_keys.shape[0]
        found[found] = slot_keys[slots[found]] == keys[found]
        old_weights = self._weights[slots[found]]
        raised = batch_weights[found] > old_weights
        new = ~found
        if not raised.any() and not new.any():
            return self, 0, 0
        weights = self._weights.copy()
        weights[slots[found]] = np.maximum(old_weights, batch_weights[found])
        new_keys = keys[new]
        neighbours = np.insert(self._neighbours, slots[new], new_keys % n)
        weights = np.insert(weights, slots[new], batch_weights[new])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees + np.bincount(new_keys // n, minlength=n),
                  out=offsets[1:])
        graph = SocialGraph(n, offsets, neighbours, weights)
        # The doubled batch holds both directions of every edge.
        return graph, int(new.sum()) // 2, int(raised.sum()) // 2

    def with_users(self, count: int) -> "SocialGraph":
        """This graph plus ``count`` isolated nodes (ids after the last)."""
        offsets = np.concatenate([
            self._offsets,
            np.full(count, self._offsets[-1], dtype=self._offsets.dtype)])
        return SocialGraph(self._num_users + count, offsets,
                           self._neighbours, self._weights)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_users(self) -> int:
        """Number of nodes in the graph."""
        return self._num_users

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._neighbours.shape[0] // 2)

    def validate_user(self, user_id: int) -> None:
        """Raise :class:`UnknownUserError` unless ``user_id`` is a valid node."""
        if not 0 <= user_id < self._num_users:
            raise UnknownUserError(user_id, self._num_users)

    def degree(self, user_id: int) -> int:
        """Number of neighbours of ``user_id``."""
        self.validate_user(user_id)
        return int(self._offsets[user_id + 1] - self._offsets[user_id])

    def neighbours(self, user_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbour_ids, weights)`` arrays for ``user_id``.

        The returned arrays are views into the CSR storage and must not be
        mutated by callers.
        """
        self.validate_user(user_id)
        start = self._offsets[user_id]
        end = self._offsets[user_id + 1]
        return self._neighbours[start:end], self._weights[start:end]

    def neighbour_ids(self, user_id: int) -> np.ndarray:
        """Return only the neighbour ids of ``user_id``."""
        return self.neighbours(user_id)[0]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when an edge ``{u, v}`` exists."""
        self.validate_user(u)
        self.validate_user(v)
        nbrs, _ = self.neighbours(u)
        return bool(np.any(nbrs == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``{u, v}``, or ``0.0`` when absent."""
        nbrs, weights = self.neighbours(u)
        self.validate_user(v)
        matches = np.nonzero(nbrs == v)[0]
        if matches.shape[0] == 0:
            return 0.0
        return float(weights[matches[0]])

    def users(self) -> range:
        """Return the range of valid user ids."""
        return range(self._num_users)

    def iter_edges(self) -> Iterator[Edge]:
        """Yield each undirected edge once as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self._num_users):
            nbrs, weights = self.neighbours(u)
            for v, w in zip(nbrs.tolist(), weights.tolist()):
                if u < v:
                    yield (u, int(v), float(w))

    def degrees(self) -> np.ndarray:
        """Return the degree of every node as an array."""
        return np.diff(self._offsets)

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the raw ``(offsets, neighbours, weights)`` CSR arrays.

        The arrays are the graph's own storage and must not be mutated;
        they exist so vectorized kernels (PPR power iteration, Monte-Carlo
        walks) can operate on the full adjacency without per-node slicing.
        """
        return self._offsets, self._neighbours, self._weights

    def edge_distances(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(distance per CSR slot, cheapest out-edge per node)``.

        The distance of a slot is
        :func:`~repro.graph.traversal.edge_distance` of its weight,
        ``-log(max(w, 1e-12))`` computed with :func:`math.log` — ``np.log``
        rounds a few weights differently, and shortest-path rows must match
        the scalar definition bit for bit.  A node without edges has an
        infinite cheapest out-edge.  Both arrays are computed on first use
        and kept for the life of the graph, which is immutable (an update
        builds a new graph, so nothing goes stale); two threads racing here
        compute equal arrays.  Callers must not mutate them.
        """
        cached = self._edge_distances
        if cached is None:
            # edge_distance element-wise: clamping and negation are exact,
            # so only the logarithm has to be math.log's.
            clamped = np.maximum(self._weights, 1e-12).tolist()
            distances = -np.fromiter(map(math.log, clamped), dtype=np.float64,
                                     count=len(clamped))
            cheapest = np.full(self._num_users, np.inf, dtype=np.float64)
            has_edges = np.diff(self._offsets) > 0
            if has_edges.any():
                cheapest[has_edges] = np.minimum.reduceat(
                    distances, self._offsets[:-1][has_edges])
            cached = (distances, cheapest)
            self._edge_distances = cached
        return cached

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def subgraph(self, user_ids: Sequence[int]) -> Tuple["SocialGraph", Dict[int, int]]:
        """Return the induced subgraph on ``user_ids`` plus the id remapping.

        The returned mapping translates original ids to compact ids in the
        subgraph.  Edges with either endpoint outside ``user_ids`` are
        dropped.
        """
        keep = sorted(set(int(u) for u in user_ids))
        for u in keep:
            self.validate_user(u)
        remap = {old: new for new, old in enumerate(keep)}
        edges: List[Edge] = []
        for u in keep:
            nbrs, weights = self.neighbours(u)
            for v, w in zip(nbrs.tolist(), weights.tolist()):
                if u < v and v in remap:
                    edges.append((remap[u], remap[int(v)], float(w)))
        return SocialGraph.from_edges(len(keep), edges), remap

    def to_edge_list(self) -> List[Edge]:
        """Return all undirected edges as a list (mostly for tests and IO)."""
        return list(self.iter_edges())

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self._offsets.nbytes + self._neighbours.nbytes + self._weights.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (
            self._num_users == other._num_users
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._neighbours, other._neighbours)
            and np.allclose(self._weights, other._weights)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SocialGraph(num_users={self._num_users}, num_edges={self.num_edges})"


class SocialGraphBuilder:
    """Incrementally assemble a :class:`SocialGraph`.

    The builder accepts undirected edges, rejects self loops and non-positive
    weights, and de-duplicates parallel edges by keeping the maximum weight.
    """

    def __init__(self, num_users: int) -> None:
        if num_users < 0:
            raise InvalidEdgeError(f"num_users must be non-negative, got {num_users}")
        self._num_users = int(num_users)
        self._edges: Dict[Tuple[int, int], float] = {}

    @property
    def num_users(self) -> int:
        """Number of nodes the built graph will have."""
        return self._num_users

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges added so far."""
        return len(self._edges)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with the given tie strength."""
        check_edge(u, v, weight, self._num_users)
        key = (u, v) if u < v else (v, u)
        existing = self._edges.get(key)
        if existing is None or weight > existing:
            self._edges[key] = float(weight)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the undirected edge was already added."""
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def build(self) -> SocialGraph:
        """Materialise the CSR arrays and return the immutable graph.

        One global lexsort over the doubled edge list replaces the old
        per-node scatter + per-node argsort (a Python loop over every node):
        sorting the directed edges by ``(source, neighbour)`` yields every
        adjacency block contiguous and neighbour-sorted in a single O(E log E)
        vectorized pass.  Keys are unique (the builder deduplicates edges),
        so the result is identical to the per-node stable sort it replaces.
        """
        num_edges = len(self._edges)
        us = np.fromiter((key[0] for key in self._edges), dtype=np.int64,
                         count=num_edges)
        vs = np.fromiter((key[1] for key in self._edges), dtype=np.int64,
                         count=num_edges)
        ws = np.fromiter(self._edges.values(), dtype=np.float64,
                         count=num_edges)
        sources = np.concatenate([us, vs])
        targets = np.concatenate([vs, us])
        doubled_weights = np.concatenate([ws, ws])
        order = np.lexsort((targets, sources))
        neighbours = targets[order]
        weights = doubled_weights[order]
        degrees = np.bincount(sources, minlength=self._num_users)
        offsets = np.zeros(self._num_users + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return SocialGraph(self._num_users, offsets, neighbours, weights)
