"""LRU cache wrapper around a proximity measure.

Repeated queries from the same seeker recompute the same proximity vector.
:class:`CachedProximity` memoises the per-seeker vector with an LRU policy
and exposes hit/miss counters, so the ablation experiment (Figure 9) can
quantify how much of the latency is proximity recomputation.

Entries are stored as **dense numpy arrays** (one float per user): that is
the form the vectorized scoring kernels consume directly via
:meth:`vector_array`, and the dict form handed to the scalar algorithms is
derived from the cached array on demand.  A second small cache keeps the
ranked ``(user, proximity)`` streams used by frontier expansion.

The cache is update-aware: when :class:`~repro.storage.updates.DatasetUpdater`
adds friendship edges, callers invalidate the affected seekers with
:meth:`CachedProximity.invalidate` (or :meth:`CachedProximity.clear`) and
rebind the wrapped measure to the rebuilt graph with
:meth:`~repro.proximity.base.ProximityMeasure.rebind`, instead of silently
serving pre-update vectors.  All cache operations take an internal lock so
the wrapper can be shared by the concurrent query threads of
:class:`repro.service.QueryService`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .base import ProximityMeasure


def _sparse_from_dense(dense: np.ndarray) -> Dict[int, float]:
    """Bulk dict view of a dense proximity array's positive entries."""
    users = np.nonzero(dense > 0.0)[0]
    return dict(zip(users.tolist(), dense[users].tolist()))


@dataclass
class CacheStatistics:
    """Hit/miss counters of a :class:`CachedProximity`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Number of times the sparse dict view was derived from a dense array.
    #: At most one derivation should happen per cached entry; the regression
    #: test for the re-derivation bug asserts on this counter.
    sparse_derivations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of vector lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict view for result tables."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "sparse_derivations": self.sparse_derivations,
            "hit_rate": self.hit_rate,
        }


class CachedProximity(ProximityMeasure):
    """Memoising decorator for any :class:`ProximityMeasure`.

    Parameters
    ----------
    inner:
        The proximity measure to wrap.
    capacity:
        Maximum number of seeker vectors kept; 0 disables caching entirely
        (every call is a miss), which is useful for ablations.
    """

    def __init__(self, inner: ProximityMeasure, capacity: int = 128) -> None:
        super().__init__(inner.graph, inner.config)
        self.name = f"cached({inner.name})"
        self._inner = inner
        self._capacity = max(0, int(capacity))
        # One entry per seeker: [dense array, lazily derived sparse dict].
        # Keeping both forms in the same slot means LRU eviction and
        # invalidation treat them as one cached vector.
        self._cache: "OrderedDict[int, List[object]]" = OrderedDict()  # guarded-by: _lock
        self._ranked_cache: "OrderedDict[int, Tuple[Tuple[int, float], ...]]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.RLock()
        # Invalidation epoch: a vector computed concurrently with an
        # invalidation or a graph rebind may reflect the pre-update graph,
        # so puts from an older generation are dropped.
        self._generation = 0  # guarded-by: _lock
        self.statistics = CacheStatistics()

    @property
    def inner(self) -> ProximityMeasure:
        """The wrapped proximity measure."""
        return self._inner

    def __len__(self) -> int:
        """Number of seekers with a cached vector."""
        with self._lock:
            return len(self._cache)

    def _get_cached(self, store: OrderedDict, seeker: int):
        with self._lock:
            if seeker in store:
                store.move_to_end(seeker)
                self.statistics.hits += 1
                return store[seeker]
            self.statistics.misses += 1
            return None

    def _put_cached(self, store: OrderedDict, seeker: int, value,
                    generation: int) -> None:
        if self._capacity == 0:
            return
        with self._lock:
            if generation != self._generation:
                return
            store[seeker] = value
            store.move_to_end(seeker)
            if len(store) > self._capacity:
                store.popitem(last=False)
                self.statistics.evictions += 1

    def _lookup_entry(self, seeker: int) -> Optional[List[object]]:
        """Cached [dense, sparse] entry of ``seeker``, counting hit/miss."""
        num_users = self._graph.num_users
        with self._lock:
            entry = self._cache.get(seeker)
            if entry is not None and entry[0].shape[0] == num_users:  # type: ignore[union-attr]
                self._cache.move_to_end(seeker)
                self.statistics.hits += 1
                return entry
            if entry is not None:
                # Stale length: the graph gained users since this entry was
                # cached (rebind without invalidation is legal for seekers
                # outside the update horizon, but the dense form must match
                # the current user count).
                del self._cache[seeker]
            self.statistics.misses += 1
            return None

    def _compute_entry(self, seeker: int) -> List[object]:
        generation = self._generation
        dense = self._inner.vector_array(seeker)
        entry: List[object] = [dense, None]
        self._put_cached(self._cache, seeker, entry, generation)
        return entry

    def _entry_from_ranked(self, seeker: int) -> Optional[List[object]]:
        """Derive a dense entry from a cached ranked stream (no inner call).

        The ranked tuple holds exactly the vector's ``(user, value)`` pairs,
        so scattering them into zeros reproduces ``inner.vector_array``
        bit for bit — a warm ranked cache means the online computation need
        not run again just to obtain the dense form.
        """
        with self._lock:
            ranked = self._ranked_cache.get(seeker)
            generation = self._generation
        if ranked is None:
            return None
        dense = np.zeros(self._graph.num_users, dtype=np.float64)
        if ranked:
            users, values = zip(*ranked)
            dense[np.array(users, dtype=np.int64)] = values
        entry: List[object] = [dense, None]
        self._put_cached(self._cache, seeker, entry, generation)
        return entry

    def vector_array(self, seeker: int) -> np.ndarray:
        """The (possibly cached) dense proximity array of ``seeker``.

        The returned array is the cache's own storage and must be treated as
        read-only; the seeker's entry is always 0.
        """
        entry = self._lookup_entry(seeker)
        if entry is None:
            entry = self._entry_from_ranked(seeker)
        if entry is None:
            entry = self._compute_entry(seeker)
        return entry[0]  # type: ignore[return-value]

    def vector(self, seeker: int) -> Dict[int, float]:
        """Sparse dict view of the cached vector (a fresh copy per call).

        The dict form is derived from the dense array once per cached entry
        and memoised alongside it, so repeat scalar-path lookups pay one
        dict copy — not an O(num_users) rebuild.
        """
        entry = self._lookup_entry(seeker)
        if entry is None:
            entry = self._entry_from_ranked(seeker)
        if entry is None:
            entry = self._compute_entry(seeker)
        sparse = entry[1]
        if sparse is None:
            sparse = _sparse_from_dense(entry[0])  # type: ignore[arg-type]
            entry[1] = sparse
            with self._lock:
                self.statistics.sparse_derivations += 1
        return dict(sparse)  # type: ignore[arg-type]

    def iter_ranked(self, seeker: int) -> Iterator[Tuple[int, float]]:
        """Yield the cached ranked stream, materialising it on first use."""
        cached = self._get_cached(self._ranked_cache, seeker)
        if cached is not None:
            yield from cached
            return
        generation = self._generation
        ranked = tuple(self._inner.iter_ranked(seeker))
        self._put_cached(self._ranked_cache, seeker, ranked, generation)
        yield from ranked

    def frontier_bound(self, seeker: int) -> Optional[float]:
        """Max proximity of the seeker when a cached entry exists (else ``None``).

        The dense entry's maximum is exactly the first value of the ranked
        stream, so a warm cache lets :class:`SocialFrontier` answer
        termination tests without re-materialising the stream.  The lookup
        is not charged as a hit or miss — it is a peek, not a vector fetch.
        """
        with self._lock:
            ranked = self._ranked_cache.get(seeker)
            if ranked is not None:
                return float(ranked[0][1]) if ranked else 0.0
            entry = self._cache.get(seeker)
            if entry is not None and entry[0].shape[0] == self._graph.num_users:  # type: ignore[union-attr]
                dense = entry[0]
                return float(dense.max()) if dense.shape[0] else 0.0  # type: ignore[union-attr]
        return None

    def proximity(self, seeker: int, target: int) -> float:
        """Point lookup served from the cached dense array."""
        if seeker == target:
            return 1.0
        self._graph.validate_user(target)
        return float(self.vector_array(seeker)[target])

    # ------------------------------------------------------------------ #
    # Update-driven invalidation
    # ------------------------------------------------------------------ #

    def invalidate(self, users: Iterable[int]) -> int:
        """Drop the cached vectors of the given seekers.

        Called after a graph update for every seeker whose proximity
        neighbourhood the update may have changed.  Returns the number of
        cache entries removed (vector and ranked entries counted
        separately).
        """
        removed = 0
        with self._lock:
            self._generation += 1
            for user in set(users):
                if self._cache.pop(user, None) is not None:
                    removed += 1
                if self._ranked_cache.pop(user, None) is not None:
                    removed += 1
            self.statistics.invalidations += removed
        return removed

    def _on_graph_changed(self) -> None:
        # Rebinding does NOT clear the cache: entries for seekers outside
        # the update's proximity horizon are still exact, and the caller
        # (QueryService, or whoever drives the updater) evicts the affected
        # seekers via invalidate()/clear().  The inner measure must see the
        # new graph so that post-invalidation misses recompute freshly, and
        # the generation bump drops vectors still being computed on the old
        # graph.
        with self._lock:
            self._generation += 1
        self._inner.rebind(self._graph)

    def clear(self) -> None:
        """Drop all cached vectors and reset the statistics."""
        with self._lock:
            self._generation += 1
            self._cache.clear()
            self._ranked_cache.clear()
            self.statistics = CacheStatistics()
