"""Concurrent query serving over a :class:`~repro.core.engine.SocialSearchEngine`.

:class:`QueryService` is the piece that turns the single-threaded library
into something that can take traffic:

* every query runs on the thread that asked for it (the HTTP server gives
  each connection its own), so the service owns no threads for queries;
* identical in-flight requests coalesce onto one computation, so a burst of
  the same hot query costs one engine run, not N;
* results land in a :class:`~repro.service.cache.ResultCache` (LRU + TTL)
  keyed by the full request identity;
* the service subscribes to :class:`~repro.storage.updates.DatasetUpdater`
  and invalidates *selectively*: a tagging on tag *t* evicts only results
  touching *t*; a friendship near user *u* evicts only results whose seeker
  is within the proximity horizon of *u* — and the engine's
  :class:`~repro.proximity.cache.CachedProximity` is invalidated and rebound
  the same way, fixing the staleness bug where pre-update proximity vectors
  kept being served after graph changes.

Updates and queries are not serialised against each other: the updater
maintains the indexes by atomically swapping immutable per-tag arrays (and
whole graph objects), so a query racing an update sees either the old or
the new entry, never a half-built one.  Results returned after an update's
``apply`` call completes reflect that update.

The service also owns the **write path's epoch machinery**: when the
watched updater's delta overlays (arena-backed datasets accumulate live
updates on top of frozen memory-mapped arrays) grow past
``ServiceConfig.compact_threshold``, a background **compaction** folds
them into fresh contiguous arrays.  Readers never block on the compaction
and never notice it — a delta-merged read and a compacted read are
value-identical — which is what keeps a query that straddles the fold
valid.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..config import ServiceConfig
from ..core.engine import SocialSearchEngine
from ..core.query import Query, QueryResult
from ..errors import ServiceError
from ..graph.traversal import bfs_levels
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..proximity.cache import CachedProximity
from ..proximity.materialized import MaterializedProximity
from ..storage.durable import DurableStore
from ..storage.updates import DatasetUpdater, UpdateSummary
from .cache import CacheKey, ResultCache
from .metrics import ServiceMetrics

#: Measures whose proximity vector of a seeker can only change when an edge
#: appears within ``max_hops`` of that seeker.  For these, friendship updates
#: invalidate selectively (a BFS ball around the touched users); for global
#: measures (personalised PageRank, landmark triangulation) every vector may
#: shift, so the service falls back to a full invalidation.
HOP_BOUNDED_MEASURES = frozenset({
    "shortest-path", "katz", "common-neighbours", "adamic-adar", "jaccard",
})


@dataclass
class ServedResult:
    """A query answer plus how the service produced it."""

    result: QueryResult
    #: ``"hit"`` (result cache), ``"coalesced"`` (joined an in-flight
    #: computation) or ``"computed"`` (fresh engine run).
    outcome: str
    #: Wall-clock service-side latency, including any wait on a leader.
    latency_seconds: float

    @property
    def cached(self) -> bool:
        """Whether the answer came straight from the result cache."""
        return self.outcome == "hit"


class QueryService:
    """Coalescing, caching, update-aware front end for one engine.

    Parameters
    ----------
    engine:
        The search engine to serve.  Its proximity measure is shared across
        calling threads; :class:`CachedProximity` is internally locked.
    config:
        Service knobs (cache capacity/TTL, horizon, compaction threshold).
    updater:
        Optional :class:`DatasetUpdater` to watch from construction; more
        can be attached later with :meth:`watch`.
    durable:
        Optional :class:`~repro.storage.durable.DurableStore` owning the
        served dataset.  When attached, the background fold triggered by
        ``compact_threshold`` becomes a full durable **checkpoint** —
        compact, publish a new arena generation, rotate the WAL — instead
        of an in-memory-only compaction, and :meth:`stats` grows a
        ``durability`` block.  The store's updater is watched
        automatically.
    """

    def __init__(self, engine: SocialSearchEngine,
                 config: Optional[ServiceConfig] = None,
                 updater: Optional[DatasetUpdater] = None,
                 durable: Optional[DurableStore] = None) -> None:
        self._engine = engine
        self._config = config or ServiceConfig()
        self._cache = ResultCache(capacity=self._config.cache_capacity,
                                  ttl_seconds=self._config.cache_ttl_seconds)
        self._metrics = ServiceMetrics()
        # Per-instance registry: push metrics (the latency histogram) live
        # here, everything else is pulled out of stats() at exposition time
        # by _collect_metrics, so the hot path never double-counts.
        self._registry = MetricsRegistry()
        self._latency_histogram = self._registry.histogram(
            "service_latency_seconds",
            "Service-side latency of computed queries.")
        self._registry.register_collector(self._collect_metrics)
        #: ``CacheKey -> Future`` of the computation a leader thread is
        #: running right now; followers block on it instead of recomputing.
        self._inflight: dict = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._watched: List[DatasetUpdater] = []  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._compacting = False  # guarded-by: _lock
        self._compactions = 0  # guarded-by: _lock
        self._compaction_failures = 0  # guarded-by: _lock
        self._compaction_error: Optional[str] = None  # guarded-by: _lock
        self._compaction_threads: List[threading.Thread] = []  # guarded-by: _lock
        self._durable: Optional[DurableStore] = None
        if updater is not None:
            self.watch(updater)
        if durable is not None:
            self.attach_durable(durable)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def engine(self) -> SocialSearchEngine:
        """The engine answering the queries."""
        return self._engine

    @property
    def config(self) -> ServiceConfig:
        """The service configuration in effect."""
        return self._config

    @property
    def cache(self) -> ResultCache:
        """The result cache (exposed for tests and benchmarks)."""
        return self._cache

    @property
    def metrics(self) -> ServiceMetrics:
        """The live metrics collector."""
        return self._metrics

    @property
    def registry(self) -> MetricsRegistry:
        """The engine-wide metrics registry (backs ``GET /metrics``)."""
        return self._registry

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registered metric."""
        return self._registry.expose_text()

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Pull every numeric leaf of :meth:`stats` into namespaced gauges.

        Runs at exposition/snapshot time only, so the counters' owning hot
        paths stay untouched; strings (algorithm names, error text) are
        not metrics and are skipped.
        """
        def put(prefix: str, mapping: dict) -> None:
            for key, value in mapping.items():
                name = f"{prefix}_{key}"
                if isinstance(value, dict):
                    put(name, value)
                elif isinstance(value, bool):
                    registry.gauge(name).set(int(value))
                elif isinstance(value, (int, float)):
                    registry.gauge(name).set(value)

        for section, block in self.stats().items():
            if isinstance(block, dict):
                put(section, block)

    def stats(self) -> dict:
        """Combined snapshot: service metrics + result and proximity caches."""
        engine_config = self._engine.config
        snapshot = {
            "service": self._metrics.to_dict(),
            "engine": {
                "algorithm": engine_config.algorithm,
                "alpha": engine_config.scoring.alpha,
                "proximity": engine_config.proximity.measure,
                "vectorized": engine_config.scoring.vectorized,
            },
            # The planner's engine-level decision record: storage backing,
            # proximity route, scoring path, partition layout.
            "plan": self._engine.planner.describe(),
            "result_cache": dict(self._cache.statistics.to_dict(),
                                 size=len(self._cache),
                                 capacity=self._cache.capacity),
            "write_path": {
                "compactions": self._compactions,
                "compaction_failures": self._compaction_failures,
                "compaction_error": self._compaction_error,
                "compact_threshold": self._config.compact_threshold,
                "pending_delta": self.pending_delta(),
                "epoch": max((updater.epoch for updater in self._watched),
                             default=0),
            },
        }
        if self._durable is not None:
            snapshot["durability"] = self._durable.stats()
        tracer = obs_trace.get_tracer()
        if tracer is not None:
            snapshot["trace"] = {
                "sample_rate": tracer.sample_rate,
                "roots_started": tracer.roots_started,
                "roots_sampled": tracer.roots_sampled,
                "retained": tracer.retained(),
                "capacity": tracer.capacity,
            }
        executor = self._engine.partition_executor
        if executor is not None:
            snapshot["partitions"] = executor.to_dict()
        proximity = self._engine.proximity
        if isinstance(proximity, CachedProximity):
            snapshot["proximity_cache"] = proximity.statistics.to_dict()
        if isinstance(proximity, MaterializedProximity):
            snapshot["proximity_shards"] = dict(
                proximity.statistics.to_dict(),
                rows=proximity.num_rows(),
                clusters=len(proximity.shards()),
            )
        return snapshot

    # ------------------------------------------------------------------ #
    # Query path
    # ------------------------------------------------------------------ #

    def _resolve_algorithm(self, algorithm: Optional[str]) -> str:
        return algorithm or self._engine.config.algorithm

    def _execute(self, key: CacheKey, query: Query,
                 algorithm: str) -> QueryResult:
        started = time.perf_counter()
        # Snapshot the invalidation epoch before computing: if an update
        # invalidates mid-computation, this (possibly pre-update) result must
        # not be cached past the invalidation.
        generation = self._cache.generation
        with obs_trace.span("service.execute", algorithm=algorithm):
            try:
                result = self._engine.run(query, algorithm=algorithm)
            except Exception:
                self._metrics.record_error()
                raise
        self._cache.put(key, result, generation=generation)
        elapsed = time.perf_counter() - started
        self._metrics.record_latency(elapsed)
        self._latency_histogram.observe(elapsed)
        return result

    def _answer(self, query: Query,
                algorithm: Optional[str]) -> Tuple[QueryResult, str]:
        """Cache probe, then join the key's in-flight run or lead a new one.

        The leader runs the engine on its own thread and publishes the
        result — or the exception — to every follower that arrived while
        it was computing.
        """
        if self._closed:
            raise ServiceError("cannot serve queries from a closed QueryService")
        name = self._resolve_algorithm(algorithm)
        key = CacheKey.for_query(query, name)
        cached = self._cache.get(key)
        if cached is not None:
            self._metrics.record_request("hit")
            return cached, "hit"
        with self._lock:
            leader = self._inflight.get(key)
            if leader is None:
                published = self._inflight[key] = Future()
        if leader is not None:
            self._metrics.record_request("coalesced")
            return leader.result(), "coalesced"
        self._metrics.record_request("miss")
        try:
            result = self._execute(key, query, name)
        except BaseException as exc:
            # Followers must never be left blocked, whatever ended the run.
            published.set_exception(exc)
            raise
        else:
            published.set_result(result)
        finally:
            with self._lock:
                del self._inflight[key]
        return result, "computed"

    def serve(self, query: Query, algorithm: Optional[str] = None,
              request_id: Optional[str] = None) -> ServedResult:
        """Answer ``query`` on the calling thread, reporting how it was served.

        When a tracer is installed the whole request — cache probe, any
        wait on a leader, the engine run — becomes one trace.
        ``request_id`` (the HTTP layer's ``X-Request-Id``) binds the trace's
        id so ``GET /trace/<id>`` finds it afterwards.
        """
        started = time.perf_counter()
        tracer = obs_trace.get_tracer()
        if tracer is None:
            result, outcome = self._answer(query, algorithm)
        else:
            with tracer.trace("request", trace_id=request_id,
                              seeker=query.seeker, tags=",".join(query.tags),
                              k=query.k) as root:
                result, outcome = self._answer(query, algorithm)
                root.set(outcome=outcome)
        return ServedResult(result=result, outcome=outcome,
                            latency_seconds=time.perf_counter() - started)

    def query(self, seeker: int, tags: Sequence[str], k: int = 10,
              algorithm: Optional[str] = None) -> QueryResult:
        """One-call convenience mirroring :meth:`SocialSearchEngine.search`."""
        return self.serve(Query(seeker=seeker, tags=tuple(tags), k=k),
                          algorithm=algorithm).result

    def warm_proximity(self, seekers: Iterable[int]) -> int:
        """Pre-populate the proximity cache/shards for the given seekers.

        Each seeker's proximity vector is computed once through the engine's
        measure: with a :class:`CachedProximity` both the dense entry and
        the ranked stream land in the LRU caches (frontier algorithms read
        the latter), with a :class:`MaterializedProximity` it is refined
        into the shard overlay (seekers already covered by a shard row cost
        one lookup).  Invalid seeker ids are skipped.  Returns the number of
        seekers warmed — this backs ``repro serve --warmup``.
        """
        proximity = self._engine.proximity
        num_users = self._engine.dataset.num_users
        warmed = 0
        for seeker in seekers:
            if not 0 <= int(seeker) < num_users:
                continue
            # Ranked stream first — one step is enough, a caching measure
            # materialises and stores the whole stream before yielding its
            # first pair — then the dense form, which CachedProximity
            # derives from the just-cached stream without re-running the
            # online computation.
            next(iter(proximity.iter_ranked(int(seeker))), None)
            proximity.vector_array(int(seeker))
            warmed += 1
        return warmed

    # ------------------------------------------------------------------ #
    # Update-driven invalidation
    # ------------------------------------------------------------------ #

    def watch(self, updater: DatasetUpdater) -> DatasetUpdater:
        """Subscribe to ``updater`` so its changes invalidate this service."""
        updater.subscribe(self._on_update)
        with self._lock:
            self._watched.append(updater)
        return updater

    def attach_durable(self, durable: DurableStore) -> DurableStore:
        """Attach the durable store backing the served dataset.

        Its updater is watched (if not already), and from here on the
        background compaction driven by ``compact_threshold`` publishes a
        full durable checkpoint rather than an in-memory-only fold.
        """
        self._durable = durable
        if durable.updater not in self._watched:
            self.watch(durable.updater)
        return durable

    @property
    def durable(self) -> Optional[DurableStore]:
        """The attached durable store, if any."""
        return self._durable

    @property
    def invalidation_horizon(self) -> int:
        """Hop radius used for friendship-driven invalidation."""
        if self._config.invalidation_horizon > 0:
            return self._config.invalidation_horizon
        return self._engine.config.proximity.max_hops

    def _affected_seekers(self, users: Iterable[int]) -> Set[int]:
        """Every seeker within the proximity horizon of one of ``users``.

        Computed on the *new* graph, which is already in place when the
        updater notifies.  Includes the touched users themselves.
        """
        graph = self._engine.dataset.graph
        horizon = self.invalidation_horizon
        affected: Set[int] = set()
        # Every touched user gets its own BFS: hop-balls are not transitively
        # closed, so a user inside another's ball can still reach seekers the
        # other ball misses.
        for user in users:
            if 0 <= user < graph.num_users:
                affected.update(bfs_levels(graph, user, max_hops=horizon))
        return affected

    def _on_update(self, summary: UpdateSummary) -> None:
        removed = 0
        if summary.tags_touched:
            removed += self._cache.invalidate_tags(summary.tags_touched)
        if summary.graph_rebuilt:
            removed += self._refresh_proximity(summary)
            self._refresh_landmarks(summary)
        # Route freshly written items to the partition owning their first
        # endorser's community, so the scatter-gather layout keeps its
        # seeker locality under live updates (unknown items would otherwise
        # serve — correctly but slower — from the hash fallback).
        partitions = self._engine.partitions
        if partitions is not None and summary.items_touched:
            partitions.route_items(summary.items_touched)
        self._metrics.record_update(removed)
        self._maybe_compact()

    def _refresh_proximity(self, summary: UpdateSummary) -> int:
        """Rebind the proximity measure to the rebuilt graph and evict stale state.

        For hop-bounded measures the refresh is incremental: a
        :class:`MaterializedProximity` keeps its shards across the graph
        swap (:meth:`~MaterializedProximity.graph_updated`), only the
        seekers within the proximity horizon of the touched users are
        invalidated, and their rows are eagerly *repaired* — recomputed on
        the new graph and written back into their shards — so post-update
        queries go straight back to the shard fast path instead of falling
        into lazy refinement one seeker at a time.  Global measures
        (personalised PageRank, landmarks) still drop everything: any
        vector may have shifted.
        """
        graph = self._engine.dataset.graph
        proximity = self._engine.proximity
        measure = self._engine.config.proximity.measure
        removed = 0
        invalidate = getattr(proximity, "invalidate", None)
        if summary.edges_added and measure not in HOP_BOUNDED_MEASURES:
            # Rebind first: misses racing the invalidation below then
            # compute on the new graph, and the rebind's generation bump /
            # shard drop discards vectors still being computed on the old
            # one.
            proximity.rebind(graph)
            removed += self._cache.clear()
            if invalidate is not None:
                invalidate(range(graph.num_users))
            return removed
        affected: Set[int] = self._affected_seekers(summary.users_touched) \
            if summary.edges_added else set()
        graph_updated = getattr(proximity, "graph_updated", None)
        if graph_updated is not None:
            graph_updated(graph, affected)
        else:
            proximity.rebind(graph)
            if affected and invalidate is not None:
                invalidate(affected)
        if affected:
            removed += self._cache.invalidate_seekers(affected)
            repair = getattr(proximity, "repair", None)
            if repair is not None:
                repair(affected)
        return removed

    def _refresh_landmarks(self, summary: UpdateSummary) -> None:
        """Keep the approximate tier admissible across graph updates.

        The frozen landmark sketch adopts the rebuilt graph without
        recomputing landmark rows; seekers within the proximity horizon of
        the touched users go stale and are served exact overlay rows until
        the next offline rebuild (:meth:`LandmarkProximity.graph_updated`).
        """
        landmark = getattr(self._engine, "landmark_proximity", None)
        if landmark is None:
            return
        affected = (self._affected_seekers(summary.users_touched)
                    if summary.edges_added else set())
        landmark.graph_updated(self._engine.dataset.graph, affected)

    # ------------------------------------------------------------------ #
    # Background compaction (the write path's epoch swap)
    # ------------------------------------------------------------------ #

    @property
    def compactions(self) -> int:
        """Number of background compactions completed so far."""
        return self._compactions

    def pending_delta(self) -> int:
        """Delta actions awaiting compaction across the watched updaters."""
        return sum(updater.pending_delta() for updater in self._watched)

    def _maybe_compact(self) -> None:
        """Kick off one background compaction when the delta is large enough.

        Runs on the updater's thread right after an update notification;
        the compaction itself runs on a dedicated daemon thread, so the
        update is acknowledged without waiting for the fold.  Readers keep
        serving from the pre-compaction epoch (delta-merged reads) until
        the fold lands; the two are value-identical, so a query in flight
        mid-compaction stays valid.  Single-flight: at most one compaction
        is in progress per service.
        """
        threshold = self._config.compact_threshold
        if threshold <= 0:
            return
        for updater in self._watched:
            if updater.pending_delta() < threshold:
                continue
            with self._lock:
                if self._closed or self._compacting:
                    return
                self._compacting = True
                thread = threading.Thread(
                    target=self._run_compaction, args=(updater,),
                    name="repro-compact", daemon=True)
                self._compaction_threads.append(thread)
            thread.start()
            return

    def _run_compaction(self, updater: DatasetUpdater) -> None:
        try:
            durable = self._durable
            if durable is not None and updater is durable.updater:
                # Durable mode: the fold is one step of a full checkpoint —
                # compact, publish a fresh arena generation, rotate the WAL
                # — so a crash right after never replays more than one
                # threshold's worth of records.  Queries are untouched
                # either way; only writers block for the publish.
                folded = int(durable.checkpoint().get("folded", 0))
            else:
                folded = updater.compact()
        except Exception as exc:
            # Surface the failure through stats() rather than dying silently:
            # a persistently failing compaction means the delta keeps growing
            # and the operator has to know.
            with self._lock:
                self._compacting = False
                self._compaction_failures += 1
                self._compaction_error = f"{type(exc).__name__}: {exc}"
            return
        with self._lock:
            self._compacting = False
            if folded:
                self._compactions += 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, wait: bool = True) -> None:
        """Unsubscribe from watched updaters and join background compactions."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            watched = list(self._watched)
            self._watched.clear()
        for updater in watched:
            updater.unsubscribe(self._on_update)
        with self._lock:
            threads = list(self._compaction_threads)
            self._compaction_threads.clear()
        if wait:
            for thread in threads:
                thread.join(timeout=60.0)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
