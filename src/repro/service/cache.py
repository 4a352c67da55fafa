"""Query-result cache with LRU + TTL eviction and selective invalidation.

The serving layer's cache is keyed by the full request identity
``(seeker, tags, k, algorithm)`` and, unlike a plain LRU, keeps two
secondary indexes — tag → keys and seeker → keys — so an update can evict
exactly the entries it made stale:

* a new tagging on tag *t* invalidates only results whose query touches *t*;
* a new friendship near user *u* invalidates only results whose seeker lies
  within the proximity horizon of *u*.

Everything is guarded by one lock; entries are immutable once stored, so a
cache hit can be handed to multiple concurrent readers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Set, Tuple

from ..core.query import Query, QueryResult


class CacheKey(NamedTuple):
    """Identity of a cacheable request.

    Tags are stored sorted so that ``(a, b)`` and ``(b, a)`` — which rank
    identically — share one entry.
    """

    seeker: int
    tags: Tuple[str, ...]
    k: int
    algorithm: str

    @classmethod
    def for_query(cls, query: Query, algorithm: str) -> "CacheKey":
        """Build the cache key of ``query`` answered by ``algorithm``."""
        return cls(seeker=query.seeker, tags=tuple(sorted(query.tags)),
                   k=query.k, algorithm=algorithm)


@dataclass
class _Entry:
    result: QueryResult
    expires_at: Optional[float]


@dataclass
class ResultCacheStatistics:
    """Counters describing one :class:`ResultCache`'s behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict view for metrics endpoints and result tables."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """LRU + TTL cache of :class:`QueryResult` objects with tag/seeker indexes.

    Parameters
    ----------
    capacity:
        Maximum number of results kept; 0 disables the cache (every probe
        misses, every put is dropped).
    ttl_seconds:
        Lifetime of an entry; 0 means entries never expire by age.
    clock:
        Monotonic time source, injectable for deterministic TTL tests.
    """

    def __init__(self, capacity: int = 1024, ttl_seconds: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._capacity = max(0, int(capacity))
        self._ttl = max(0.0, float(ttl_seconds))
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[CacheKey, _Entry] = {}  # guarded-by: _lock
        self._order: Dict[CacheKey, None] = {}  # guarded-by: _lock
        # Expiry-ordered key set: every entry carries the same TTL, so the
        # order keys were (re)stored in is exactly the order they expire in
        # and a sweep only ever inspects the front.
        self._expiry: Dict[CacheKey, None] = {}  # guarded-by: _lock
        self._by_tag: Dict[str, Set[CacheKey]] = {}  # guarded-by: _lock
        self._by_seeker: Dict[int, Set[CacheKey]] = {}  # guarded-by: _lock
        self._generation = 0  # guarded-by: _lock
        self.statistics = ResultCacheStatistics()

    @property
    def capacity(self) -> int:
        """Maximum number of entries kept."""
        return self._capacity

    @property
    def ttl_seconds(self) -> float:
        """Entry lifetime in seconds (0 = no expiry)."""
        return self._ttl

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def generation(self) -> int:
        """Invalidation epoch; bumped by every invalidation event.

        A caller computing a result snapshots the generation *before* the
        computation and passes it to :meth:`put`; if an invalidation lands
        in between, the (now possibly stale) result is silently dropped
        instead of being cached past the invalidation.
        """
        with self._lock:
            return self._generation

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #

    def _unlink(self, key: CacheKey) -> None:  # lock-held: _lock
        """Remove ``key`` from the entry map and both secondary indexes."""
        self._entries.pop(key, None)
        self._order.pop(key, None)
        self._expiry.pop(key, None)
        for tag in key.tags:
            keys = self._by_tag.get(tag)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_tag[tag]
        keys = self._by_seeker.get(key.seeker)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_seeker[key.seeker]

    def get(self, key: CacheKey) -> Optional[QueryResult]:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.statistics.misses += 1
                return None
            if entry.expires_at is not None and self._clock() >= entry.expires_at:
                self._unlink(key)
                self.statistics.expirations += 1
                self.statistics.misses += 1
                return None
            # Refresh recency: move to the back of the eviction order.
            self._order.pop(key, None)
            self._order[key] = None
            self.statistics.hits += 1
            return entry.result

    def put(self, key: CacheKey, result: QueryResult,
            generation: Optional[int] = None) -> None:
        """Store ``result`` under ``key``, evicting the LRU entry if full.

        When ``generation`` is given and an invalidation happened since that
        generation was read, the result was computed against possibly-stale
        data and is dropped.
        """
        if self._capacity == 0:
            return
        now = self._clock()
        expires_at = now + self._ttl if self._ttl > 0 else None
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            # Dead entries must not occupy capacity (they would evict live
            # ones below while a later get would discard them anyway).
            self._sweep_expired(now)
            if key in self._entries:
                # Overwrite: re-linking below promotes the key to the back
                # of both the recency and the expiry order.
                self._unlink(key)
            self._entries[key] = _Entry(result=result, expires_at=expires_at)
            self._order[key] = None
            if expires_at is not None:
                self._expiry[key] = None
            for tag in key.tags:
                self._by_tag.setdefault(tag, set()).add(key)
            self._by_seeker.setdefault(key.seeker, set()).add(key)
            while len(self._entries) > self._capacity:
                victim = next(iter(self._order))
                self._unlink(victim)
                self.statistics.evictions += 1

    def _sweep_expired(self, now: float) -> None:  # lock-held: _lock
        """Drop every expired entry (lock held).

        ``_expiry`` is expiry-ordered, so the sweep stops at the first
        still-live entry and the amortised cost is O(1) per stored entry.
        """
        while self._expiry:
            key = next(iter(self._expiry))
            entry = self._entries.get(key)
            if entry is None or entry.expires_at is None:
                self._expiry.pop(key, None)
                continue
            if now < entry.expires_at:
                break
            self._unlink(key)
            self.statistics.expirations += 1

    # ------------------------------------------------------------------ #
    # Update-driven invalidation
    # ------------------------------------------------------------------ #

    def invalidate_tags(self, tags: Iterable[str]) -> int:
        """Evict every entry whose query touches one of ``tags``."""
        removed = 0
        with self._lock:
            self._generation += 1
            for tag in set(tags):
                for key in list(self._by_tag.get(tag, ())):
                    self._unlink(key)
                    removed += 1
            self.statistics.invalidations += removed
        return removed

    def invalidate_seekers(self, users: Iterable[int]) -> int:
        """Evict every entry whose seeker is one of ``users``."""
        removed = 0
        with self._lock:
            self._generation += 1
            for user in set(users):
                for key in list(self._by_seeker.get(user, ())):
                    self._unlink(key)
                    removed += 1
            self.statistics.invalidations += removed
        return removed

    def clear(self) -> int:
        """Drop every entry (counted as invalidations); returns the count."""
        with self._lock:
            self._generation += 1
            removed = len(self._entries)
            self._entries.clear()
            self._order.clear()
            self._expiry.clear()
            self._by_tag.clear()
            self._by_seeker.clear()
            self.statistics.invalidations += removed
        return removed
