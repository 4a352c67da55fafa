"""Materialized proximity shards: the offline end of the paper's trade-off.

The paper's central tension is *computing* social proximity online per
seeker versus *materializing* it offline for everyone.  PR 2 made the
online kernels fast, but a cold seeker still pays a full proximity
computation (e.g. a personalised-PageRank power iteration) on their first
query.  This module is the offline/online split that makes cold serving
O(touch):

* Seekers are partitioned into **clusters** with
  :func:`repro.graph.partition.label_propagation` — communities are exactly
  the sets of seekers whose proximity vectors overlap most, so one shard's
  rows share their non-zero structure.
* Each cluster becomes a :class:`ProximityShard`: a CSR block of the
  members' **exact** proximity rows (values bit-identical to what the
  wrapped measure computes online).
* :class:`MaterializedProximity` serves any seeker from their shard row,
  falling back to **lazy refinement** through the wrapped measure for
  seekers that were never materialized (new users, post-update
  invalidations).

Shards are plain numpy arrays, so the whole structure serialises into the
:mod:`repro.storage.arena` memory-mapped file and comes back zero-copy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.partition import label_propagation
from ..obs.trace import span as obs_span
from .base import ProximityMeasure

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_VALUES = np.zeros(0, dtype=np.float64)


class ProximityShard:
    """One cluster's materialized proximity rows in CSR form (read-only).

    ``members`` are the seekers of the cluster in ascending id order; row
    ``r`` (``members[r]``) spans ``user_ids[offsets[r]:offsets[r+1]]`` /
    ``values[...]`` with user ids ascending inside the row.
    """

    __slots__ = ("cluster_id", "members", "offsets", "user_ids", "values")

    def __init__(self, cluster_id: int, members: np.ndarray, offsets: np.ndarray,
                 user_ids: np.ndarray, values: np.ndarray) -> None:
        self.cluster_id = cluster_id
        self.members = members
        self.offsets = offsets
        self.user_ids = user_ids
        self.values = values

    def __len__(self) -> int:
        return int(self.members.shape[0])

    @property
    def num_entries(self) -> int:
        """Total number of stored ``(seeker, user, proximity)`` entries."""
        return int(self.user_ids.shape[0])

    def row_position(self, seeker: int) -> int:
        """Row index of ``seeker`` in this shard, or -1 when absent."""
        position = int(np.searchsorted(self.members, seeker))
        if position >= len(self) or int(self.members[position]) != seeker:
            return -1
        return position

    def row(self, position: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(user_ids, values)`` arrays of one member row (views)."""
        start = int(self.offsets[position])
        end = int(self.offsets[position + 1])
        return self.user_ids[start:end], self.values[start:end]

    def memory_bytes(self) -> int:
        """Approximate footprint of the shard arrays in bytes."""
        return int(self.members.nbytes + self.offsets.nbytes
                   + self.user_ids.nbytes + self.values.nbytes)

    @classmethod
    def build(cls, cluster_id: int, members: Sequence[int],
              rows: Sequence[Tuple[np.ndarray, np.ndarray]]) -> "ProximityShard":
        """Assemble a shard from per-member sparse rows (already ascending)."""
        member_array = np.asarray(members, dtype=np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        for position, (user_ids, _values) in enumerate(rows):
            offsets[position + 1] = offsets[position] + user_ids.shape[0]
        total = int(offsets[-1])
        user_ids = np.zeros(total, dtype=np.int64)
        values = np.zeros(total, dtype=np.float64)
        for position, (row_users, row_values) in enumerate(rows):
            start, end = int(offsets[position]), int(offsets[position + 1])
            user_ids[start:end] = row_users
            values[start:end] = row_values
        return cls(cluster_id, member_array, offsets, user_ids, values)


@dataclass
class MaterializedStatistics:
    """Serving counters of a :class:`MaterializedProximity`."""

    #: Vector lookups answered from a shard row.
    shard_hits: int = 0
    #: Vector lookups answered from the lazy-refinement overlay.
    overlay_hits: int = 0
    #: Vector lookups that fell through to the wrapped online measure.
    refinements: int = 0
    #: Rows recomputed and written back into their shard by :meth:`repair`.
    repairs: int = 0

    @property
    def lookups(self) -> int:
        """Total number of vector lookups."""
        return self.shard_hits + self.overlay_hits + self.refinements

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict view for stats endpoints and result tables."""
        return {
            "shard_hits": self.shard_hits,
            "overlay_hits": self.overlay_hits,
            "refinements": self.refinements,
            "repairs": self.repairs,
            "lookups": self.lookups,
        }


class MaterializedProximity(ProximityMeasure):
    """Shard-served proximity with lazy online refinement.

    Parameters
    ----------
    inner:
        The proximity measure whose vectors are materialized.  Rows store
        the inner measure's output verbatim, so serving is bit-identical to
        computing online.
    labels:
        Optional cluster label per user (as returned by
        :func:`~repro.graph.partition.label_propagation`).  When omitted,
        :meth:`build` runs label propagation itself.
    cluster_rounds:
        Label-propagation rounds used when ``labels`` is not supplied.
    """

    def __init__(self, inner: ProximityMeasure,
                 labels: Optional[Sequence[int]] = None,
                 cluster_rounds: int = 5) -> None:
        super().__init__(inner.graph, inner.config)
        self.name = f"materialized({inner.name})"
        self._inner = inner
        self._cluster_rounds = max(1, int(cluster_rounds))
        self._labels: Optional[List[int]] = list(labels) if labels is not None else None
        self._shards: Dict[int, ProximityShard] = {}  # guarded-by: _lock
        self._shard_of: Dict[int, int] = {}  # guarded-by: _lock
        self._stale: set = set()  # guarded-by: _lock
        # Lazy-refinement overlay: seeker -> (user_ids, values) sparse row,
        # for seekers without a (fresh) shard row.
        self._overlay: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        self.statistics = MaterializedStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def inner(self) -> ProximityMeasure:
        """The wrapped online proximity measure."""
        return self._inner

    @property
    def built(self) -> bool:
        """Whether shards have been materialized."""
        return bool(self._shards)

    def labels(self) -> List[int]:
        """Cluster label per user (computing them on first use)."""
        if self._labels is None:
            self._labels = label_propagation(self._graph,
                                             max_rounds=self._cluster_rounds)
        return self._labels

    def shards(self) -> List[ProximityShard]:
        """All materialized shards (largest first is not guaranteed)."""
        return list(self._shards.values())

    def cluster_of(self, seeker: int) -> int:
        """Cluster label of ``seeker`` (labels are stable node ids)."""
        self._graph.validate_user(seeker)
        return int(self.labels()[seeker])

    def num_rows(self) -> int:
        """Number of materialized seeker rows across all shards."""
        return sum(len(shard) for shard in self._shards.values())

    def num_entries(self) -> int:
        """Total stored ``(seeker, user, proximity)`` entries."""
        return sum(shard.num_entries for shard in self._shards.values())

    def memory_bytes(self) -> int:
        """Approximate footprint of all shards plus the overlay."""
        total = sum(shard.memory_bytes() for shard in self._shards.values())
        for user_ids, values in self._overlay.values():
            total += int(user_ids.nbytes + values.nbytes)
        return total

    # ------------------------------------------------------------------ #
    # Offline build
    # ------------------------------------------------------------------ #

    def build(self, seekers: Optional[Iterable[int]] = None) -> int:
        """Materialize shard rows for ``seekers`` (default: every user).

        This is the offline precomputation step — one inner-measure vector
        per seeker, grouped into per-cluster CSR shards.  Returns the number of rows materialized.  Existing shards
        are replaced wholesale, and refinement overlays for the covered
        seekers are dropped (the shard row supersedes them).
        """
        labels = self.labels()
        wanted = sorted(set(int(s) for s in (seekers if seekers is not None
                                             else range(self._graph.num_users))))
        by_cluster: Dict[int, List[int]] = {}
        for seeker in wanted:
            self._graph.validate_user(seeker)
            by_cluster.setdefault(int(labels[seeker]), []).append(seeker)
        shards: Dict[int, ProximityShard] = {}
        shard_of: Dict[int, int] = {}
        for cluster_id in sorted(by_cluster):
            members = by_cluster[cluster_id]
            rows: List[Tuple[np.ndarray, np.ndarray]] = []
            for seeker in members:
                rows.append(_sparse_row(self._inner.vector_array(seeker)))
            shards[cluster_id] = ProximityShard.build(cluster_id, members, rows)
            for seeker in members:
                shard_of[seeker] = cluster_id
        with self._lock:
            self._shards = shards
            self._shard_of = shard_of
            self._stale.clear()
            for seeker in wanted:
                self._overlay.pop(seeker, None)
        return len(wanted)

    def install_shards(self, shards: Sequence[ProximityShard],
                       labels: Optional[Sequence[int]] = None) -> None:
        """Adopt prebuilt shards (the arena load path)."""
        with self._lock:
            if labels is not None:
                self._labels = list(labels)
            self._shards = {shard.cluster_id: shard for shard in shards}
            self._shard_of = {
                int(member): shard.cluster_id
                for shard in shards for member in shard.members.tolist()
            }
            self._stale.clear()
            self._overlay.clear()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def _lookup_row(self, seeker: int,
                    count: bool = True) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The seeker's sparse row from shard or overlay, or ``None``.

        ``count=False`` is the peek mode used by :meth:`frontier_bound`:
        bound probes are not vector fetches and must not inflate the
        hit counters the serving stats report.
        """
        with self._lock:
            if seeker in self._overlay:
                if count:
                    self.statistics.overlay_hits += 1
                return self._overlay[seeker]
            if seeker in self._stale:
                return None
            cluster_id = self._shard_of.get(seeker)
            if cluster_id is None:
                return None
            shard = self._shards[cluster_id]
        position = shard.row_position(seeker)
        if position < 0:
            return None
        if count:
            with self._lock:
                self.statistics.shard_hits += 1
        return shard.row(position)

    def _refine(self, seeker: int) -> Tuple[np.ndarray, np.ndarray]:
        """Compute the seeker's row online and memoise it in the overlay."""
        with obs_span("proximity.refine", seeker=seeker) as refine_span:
            dense = self._inner.vector_array(seeker)
            row = _sparse_row(dense)
            refine_span.set(row_entries=int(row[0].shape[0]))
        with self._lock:
            self.statistics.refinements += 1
            self._overlay[seeker] = row
        return row

    def vector_array(self, seeker: int) -> np.ndarray:
        """Dense proximity array served from the shard row (read-only)."""
        self._graph.validate_user(seeker)
        row = self._lookup_row(seeker)
        if row is None:
            row = self._refine(seeker)
        user_ids, values = row
        dense = np.zeros(self._graph.num_users, dtype=np.float64)
        dense[user_ids] = values
        return dense

    def vector(self, seeker: int) -> Dict[int, float]:
        """Sparse dict view of the shard row (a fresh copy per call)."""
        self._graph.validate_user(seeker)
        row = self._lookup_row(seeker)
        if row is None:
            row = self._refine(seeker)
        user_ids, values = row
        return dict(zip(user_ids.tolist(), values.tolist()))

    def proximity(self, seeker: int, target: int) -> float:
        """Point lookup by binary search in the seeker's row."""
        self._graph.validate_user(target)
        if seeker == target:
            return 1.0
        row = self._lookup_row(seeker)
        if row is None:
            self._graph.validate_user(seeker)
            row = self._refine(seeker)
        user_ids, values = row
        position = int(np.searchsorted(user_ids, target))
        if position < user_ids.shape[0] and int(user_ids[position]) == target:
            return float(values[position])
        return 0.0

    def frontier_bound(self, seeker: int) -> Optional[float]:
        """Exact max proximity from the row — equals the first ranked value.

        A peek, not a fetch: it does not touch the hit counters.
        """
        row = self._lookup_row(seeker, count=False)
        if row is None:
            return None
        values = row[1]
        return float(values.max()) if values.shape[0] else 0.0

    # ------------------------------------------------------------------ #
    # Update-driven invalidation
    # ------------------------------------------------------------------ #

    def invalidate(self, users: Iterable[int]) -> int:
        """Mark the given seekers' rows stale; they refine lazily from now on.

        Mirrors :meth:`repro.proximity.cache.CachedProximity.invalidate` so
        :class:`repro.service.QueryService` can drive either wrapper through
        the same hook.  Stale rows stay in shard storage — never served,
        but available for :meth:`repair` to overwrite in place.  Returns
        the number of rows newly marked stale or dropped from the overlay.
        """
        removed = 0
        with self._lock:
            for user in set(users):
                if self._overlay.pop(user, None) is not None:
                    removed += 1
                if user in self._shard_of and user not in self._stale:
                    self._stale.add(user)
                    removed += 1
        return removed

    def repair(self, users: Iterable[int]) -> int:
        """Recompute stale shard rows online and write them back in place.

        The incremental-maintenance counterpart of :meth:`invalidate`: each
        given seeker that is stale and belongs to a shard gets its row
        recomputed through the wrapped measure (exactly what a fresh
        :meth:`build` would store) and the touched shards are reassembled
        with repaired rows.  Seekers without a
        shard row are ignored — lazy refinement already covers them.
        Returns the number of rows repaired.
        """
        with self._lock:
            targets = sorted(user for user in set(users)
                             if user in self._stale and user in self._shard_of)
        if not targets:
            return 0
        # The online recomputation runs outside the lock: it is the
        # expensive part and must not block concurrent lookups.
        with obs_span("proximity.repair", rows=len(targets)):
            rows = {user: _sparse_row(self._inner.vector_array(user))
                    for user in targets}
        repaired = 0
        with self._lock:
            by_cluster: Dict[int, List[int]] = {}
            for user in targets:
                cluster_id = self._shard_of.get(user)
                if cluster_id is None or user not in self._stale:
                    continue  # raced with a concurrent build/invalidate
                by_cluster.setdefault(cluster_id, []).append(user)
            for cluster_id, members in by_cluster.items():
                shard = self._shards.get(cluster_id)
                if shard is None:
                    continue
                new_rows = []
                repairing = set(members)
                for position, member in enumerate(shard.members.tolist()):
                    if member in repairing:
                        new_rows.append(rows[member])
                    else:
                        new_rows.append(shard.row(position))
                self._shards[cluster_id] = ProximityShard.build(
                    cluster_id, shard.members.tolist(), new_rows)
                for member in members:
                    self._stale.discard(member)
                    self._overlay.pop(member, None)
                    repaired += 1
            self.statistics.repairs += repaired
        return repaired

    def graph_updated(self, graph, affected: Iterable[int]) -> int:
        """Incremental rebind: keep every shard, invalidate only ``affected``.

        The drop-everything :meth:`rebind` is the only safe default when the
        caller cannot bound which proximity vectors an edge change reaches.
        When it *can* — hop-bounded measures, where
        :class:`repro.service.QueryService` computes the BFS ball around the
        touched users — this path preserves the materialized fast path
        across the graph swap: labels are extended (each new user gets a
        fresh singleton cluster), the wrapped measure is rebound, and only
        the affected seekers' rows go stale.  Returns the number of rows
        invalidated.
        """
        with self._lock:
            self._graph = graph
            if self._labels is not None and graph.num_users > len(self._labels):
                next_label = max(self._labels, default=-1) + 1
                self._labels.extend(
                    range(next_label,
                          next_label + graph.num_users - len(self._labels)))
        self._inner.rebind(graph)
        return self.invalidate(affected)

    def _on_graph_changed(self) -> None:
        # A plain rebind invalidates everything: without a caller-supplied
        # bound on which seekers an edge change reaches (see
        # :meth:`graph_updated`), every shard row is potentially an exact
        # vector of the *old* graph and the cluster structure itself may
        # have shifted.  Serving falls back to lazy refinement until the
        # next offline build().
        with self._lock:
            self._shards.clear()
            self._shard_of.clear()
            self._stale.clear()
            self._overlay.clear()
            self._labels = None
        self._inner.rebind(self._graph)

    def clear(self) -> None:
        """Drop all shards, overlays and statistics (keeps the labels)."""
        with self._lock:
            self._shards.clear()
            self._shard_of.clear()
            self._stale.clear()
            self._overlay.clear()
            self.statistics = MaterializedStatistics()


def _sparse_row(dense: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse ``(user_ids, values)`` of a dense vector's positive entries.

    ``np.nonzero`` returns ascending indices, which is the row order every
    lookup relies on.  Reconstructing a dense array from the pair is exact:
    the dropped entries are exactly the zeros.
    """
    if dense.shape[0] == 0:
        return _EMPTY_IDS, _EMPTY_VALUES
    users = np.nonzero(dense > 0.0)[0].astype(np.int64)
    return users, dense[users].astype(np.float64)


def materialize_measure(inner: ProximityMeasure,
                        cluster_rounds: int = 5,
                        eager: bool = False) -> MaterializedProximity:
    """Wrap ``inner`` in a :class:`MaterializedProximity` (optionally prebuilt)."""
    materialized = MaterializedProximity(inner, cluster_rounds=cluster_rounds)
    if eager:
        materialized.build()
    return materialized
