"""Partitioned scatter-gather execution of the exact vectorized scan.

The paper's bound-based early termination reasons about *one* corpus: stop
reading when no unseen item can beat the current top-k.  The same argument
generalises per partition — an item shard whose admissible score upper
bound cannot reach the k-th best provable lower bound loses wholesale and
is never scanned.  That is exactly the pruning a scatter-gather layer
needs: queries fan out over :class:`~repro.storage.partitioned.CorpusPartitions`
item shards, low-bound shards are skipped, surviving shards run their
block scan on the calling thread, and the partial top-ks merge into one
ranking.

The executor is a *serving* component, so everything that depends only on
the tag combination — the candidate block, per-tag position maps, the
textual component, the scalar-equivalent base access charges, the shard
split, and the cluster-bound score uppers — is computed once per tag set
and reused across queries (invalidated by the endorser index's version
token, exactly like :meth:`ScoringModel.candidate_block`).  Zipf-skewed
serving traffic hits the same hot tag sets over and over; the
single-partition :class:`~repro.core.topk.exact.ExactBaseline` recomputes
all of it per query.

The contract is the repo-wide one: results are **bit-identical** to the
single-partition exact scan — same rankings, same scores, same access
accounting.  That falls out of three facts:

* per-item scores depend only on that item's posting/endorser segments,
  and the subset gather (:meth:`TagEndorsers.subset_social_mass
  <repro.storage.endorser_index.TagEndorsers.subset_social_mass>`) reduces
  each segment in the same element order as the full ``reduceat``;
* access charges are defined by what the scalar path *would* do; they are
  cheap integer arithmetic over the whole candidate block and are computed
  globally, so pruning never changes them;
* every cut — whole shards and individual items — drops a candidate only
  when its admissible score bound is *strictly* below a provable lower
  bound on the k-th best score, so nothing skipped could have placed, ties
  included.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EngineConfig
from ..obs import trace as obs_trace
from ..obs.trace import NULL_SPAN
from ..proximity.base import ProximityMeasure
from ..storage.dataset import Dataset
from ..storage.partitioned import CorpusPartitions
from .accounting import AccessAccountant
from .query import Query, QueryResult, ScoredItem
from .scoring import ScoringModel
from .topk.exact import select_topk


def _no_span(name: str, **attributes: object):
    """Span factory of the untraced path: always the shared no-op span."""
    return NULL_SPAN


@dataclass
class PartitionExecStatistics:
    """Serving counters of a :class:`PartitionedExecutor`."""

    #: Queries answered through the scatter-gather path.
    searches: int = 0
    #: Shards whose block scan actually ran.
    partitions_scanned: int = 0
    #: Shards skipped because their admissible bound lost to the threshold.
    partitions_pruned: int = 0
    #: Individual candidates dropped before their social gather inside
    #: scanned shards (the item-level form of the same bound cut).
    candidates_pruned: int = 0
    #: Individual candidates whose exact score was actually computed.
    candidates_scanned: int = 0

    def to_dict(self) -> Dict[str, float]:
        return {
            "searches": self.searches,
            "partitions_scanned": self.partitions_scanned,
            "partitions_pruned": self.partitions_pruned,
            "candidates_pruned": self.candidates_pruned,
            "candidates_scanned": self.candidates_scanned,
        }


@dataclass(frozen=True)
class PartitionBounds:
    """The bound phase of one query, before any social gather runs."""

    frontier_bound: float
    prune_threshold: Optional[float]
    #: Per-shard dicts: ``partition``, ``candidates``, ``upper_bound``,
    #: ``pruned`` (the planner turns these into ``PartitionPreview``s).
    partitions: Tuple[Dict[str, object], ...] = field(default_factory=tuple)


class _TagContext:
    """One tag's slice of a tag-set context (all arrays read-only)."""

    __slots__ = ("normaliser", "bundle", "positions", "found", "frequencies",
                 "ntf", "all_found")

    def __init__(self, normaliser, bundle, positions, found, frequencies,
                 ntf) -> None:
        self.normaliser = normaliser
        self.bundle = bundle
        self.positions = positions
        self.found = found
        self.frequencies = frequencies
        self.ntf = ntf
        #: Every candidate carries the tag (single-tag blocks, mostly):
        #: scans skip the found-mask gather entirely.
        self.all_found = bool(found.all())


class _ScatterPlan:
    """A (tag set, cluster, k)-level scatter layout, shared across queries.

    Everything here depends only on the static threshold and the cluster's
    admissible bounds — not on the seeker — so hot tag sets pay the probe
    selection, shard ranking and probe-exclusion masking exactly once.
    """

    __slots__ = ("upper_ref", "static_threshold", "probe", "residual_uppers",
                 "residual_partitions", "residual_union", "residual_offsets",
                 "pruned_static")

    def __init__(self, upper_ref, static_threshold, probe, residual_uppers,
                 residual_partitions, residual_union, residual_offsets,
                 pruned_static) -> None:
        #: The per-item bound array this plan was derived from (identity
        #: check on reuse — a repaired cluster bound produces a new array).
        self.upper_ref = upper_ref
        self.static_threshold = static_threshold
        #: Highest-bound candidate positions scored first, or ``None``.
        self.probe = probe
        #: Statically surviving shards' upper bounds, descending.
        self.residual_uppers = residual_uppers
        #: Those shards' partition ids, in the same order (per-shard trace
        #: spans name the shard they scanned).
        self.residual_partitions = residual_partitions
        #: Those shards' candidate positions (minus the probe), concatenated
        #: in the same descending-bound order.  A tightened threshold always
        #: prunes a *suffix* of the bound-desc order, so the per-query
        #: survivor set is a prefix slice — no concatenation on the hot path.
        self.residual_union = residual_union
        #: ``residual_offsets[i]`` ends shard ``i``'s slice of the union.
        self.residual_offsets = residual_offsets
        #: Shards already ruled out by the static threshold.
        self.pruned_static = pruned_static


class _TagSetContext:
    """Query-independent artifacts of one tag combination, shared across
    queries: candidate block, per-tag maps, textual component, base charges,
    shard split, and memoised per-cluster score uppers."""

    __slots__ = ("tags", "candidates", "contexts", "textual", "base_charges",
                 "sequential", "m", "shards", "upper_cache", "threshold_cache",
                 "scatter_cache")

    def __init__(self, tags, candidates, contexts, textual, base_charges,
                 sequential, m, shards) -> None:
        self.tags = tags
        self.candidates = candidates
        self.contexts = contexts
        self.textual = textual
        self.base_charges = base_charges
        self.sequential = sequential
        self.m = m
        self.shards = shards
        #: ``id(bound_vector) -> (bound_vector, upper_items)``.
        self.upper_cache: Dict[int, Tuple[object, np.ndarray]] = {}
        #: ``k -> static textual-only prune threshold`` (or ``None``).
        self.threshold_cache: Dict[int, Optional[float]] = {}
        #: ``(id(upper_items), k) -> _ScatterPlan``.
        self.scatter_cache: Dict[Tuple[int, int], _ScatterPlan] = {}


class PartitionedExecutor:
    """Scatter-gather driver for the exact vectorized scan.

    Parameters
    ----------
    dataset / proximity / config:
        The same triple every :class:`~repro.core.topk.base.TopKAlgorithm`
        binds; the executor owns its :class:`ScoringModel` so candidate-block
        memoisation behaves like any other algorithm instance's.
    partitions:
        The corpus layout queries scatter over.
    label:
        Algorithm label stamped on results.  ``"exact"`` for the standard
        executor; the engine's landmark-sketch executor passes
        ``"landmark"``, which also marks results as approximate
        (``is_exact=False``) — the sketch's admissible under-estimates
        change scores, not just scan order.
    """

    def __init__(self, dataset: Dataset, proximity: ProximityMeasure,
                 config: EngineConfig, partitions: CorpusPartitions,
                 label: str = "exact") -> None:
        self._dataset = dataset
        self._proximity = proximity
        self._config = config
        self._partitions = partitions
        self._label = label
        self._approximate = label != "exact"
        self._scoring = ScoringModel(dataset, proximity, config.scoring)
        self._lock = threading.Lock()
        # Tag-set contexts keyed like ScoringModel's candidate cache: the
        # endorser index object plus its delta version.
        self._tagsets: Dict[Tuple[str, ...], _TagSetContext] = {}  # guarded-by: _lock
        self._tagset_token: Optional[Tuple[object, int]] = None  # guarded-by: _lock
        # Bound-weighted endorser masses per (cluster bound vector, tag),
        # shared across every seeker of the cluster and across queries.
        # Keys hold the bound array and bundle by reference, so a shard
        # repair (new bound array) or a delta merge (new bundle) misses
        # cleanly.
        self._bound_mass_cache: Dict[Tuple[int, str],  # guarded-by: _lock
                                     Tuple[object, object, np.ndarray]] = {}
        self.statistics = PartitionExecStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_partitions(self) -> int:
        """Number of item shards in the layout."""
        return self._partitions.num_partitions

    @property
    def partitions(self) -> CorpusPartitions:
        """The corpus layout."""
        return self._partitions

    def to_dict(self) -> Dict[str, object]:
        """Stats-endpoint view: layout plus serving counters."""
        return dict(self._partitions.to_dict(),
                    label=self._label,
                    **self.statistics.to_dict())

    # ------------------------------------------------------------------ #
    # Tag-set context (shared across queries)
    # ------------------------------------------------------------------ #

    def _tagset(self, tags: Tuple[str, ...]) -> _TagSetContext:
        """The cached tag-set context, rebuilt when the index moves on."""
        index = self._dataset.endorser_index
        token = (index, getattr(index, "version", 0))
        with self._lock:
            current = self._tagset_token
            if current is None or current[0] is not token[0] \
                    or current[1] != token[1]:
                self._tagsets.clear()
                self._tagset_token = token
            context = self._tagsets.get(tags)
        if context is not None:
            return context
        context = self._build_tagset(tags)
        with self._lock:
            if self._tagset_token == token or (
                    self._tagset_token is not None
                    and self._tagset_token[0] is token[0]
                    and self._tagset_token[1] == token[1]):
                if len(self._tagsets) >= 1024:
                    self._tagsets.clear()
                self._tagsets[tags] = context
        return context

    def _build_tagset(self, tags: Tuple[str, ...]) -> _TagSetContext:
        candidates = self._scoring.candidate_block(tags)
        n = int(candidates.shape[0])
        m = float(len(tags)) if tags else 1.0
        contexts: List[Optional[_TagContext]] = []
        textual_total = np.zeros(n, dtype=np.float64)
        base_charges = np.zeros(n, dtype=np.int64)
        for tag in tags:
            normaliser = self._scoring.normaliser(tag)
            bundle = self._dataset.endorser_index.for_tag(tag)
            if bundle is None or len(bundle) == 0:
                base_charges += 1  # the frequency lookup still happens
                contexts.append(None)
                continue
            if candidates is bundle.item_ids:
                # Single-tag fast path: the candidate block IS the tag's
                # item array, so every item maps to its own position.
                positions = np.arange(n, dtype=np.int64)
                found = np.ones(n, dtype=bool)
                frequencies = bundle.frequencies
            else:
                positions, found = bundle.positions_of(candidates)
                frequencies = np.where(found, bundle.frequencies[positions], 0)
            ntf = frequencies / normaliser
            textual_total += ntf
            base_charges += 1 + frequencies
            contexts.append(_TagContext(normaliser, bundle, positions, found,
                                        frequencies, ntf))
        sequential = sum(self._dataset.inverted_index.list_length(tag)
                         for tag in tags)
        shards = self._shard_indices(candidates)
        return _TagSetContext(tags, candidates, contexts, textual_total / m,
                              base_charges, sequential, m, shards)

    def _shard_indices(self, candidates: np.ndarray) -> List[np.ndarray]:
        """Candidate positions per partition (ascending within each shard)."""
        parts = self._partitions.partition_of_items(candidates)
        return [np.nonzero(parts == p)[0]
                for p in range(self.num_partitions)]

    # ------------------------------------------------------------------ #
    # Bounds
    # ------------------------------------------------------------------ #

    def _cluster_bound(self, seeker: int) -> Optional[np.ndarray]:
        """The seeker's materialized cluster bound vector, when served."""
        upper_bound_of = getattr(self._proximity, "upper_bound_array", None)
        if upper_bound_of is None:
            return None
        return upper_bound_of(seeker)

    def _bound_masses(self, tag: str, bundle, bound_vector: np.ndarray
                      ) -> np.ndarray:
        """Bound-weighted endorser mass of every item of ``tag``, memoised.

        ``bound_vector`` is a materialized cluster bound
        (:meth:`~repro.proximity.materialized.MaterializedProximity.upper_bound_array`):
        an admissible per-user cap on the proximity of *any* cluster member.
        The gather runs once per (cluster, tag) and is reused by every
        member's every query until the shard is repaired or the tag's CSR
        bundle is swapped by a delta merge.
        """
        key = (id(bound_vector), tag)
        entry = self._bound_mass_cache.get(key)
        if entry is not None and entry[0] is bound_vector \
                and entry[1] is bundle:
            return entry[2]
        masses = bundle.social_mass(bound_vector)
        with self._lock:
            if len(self._bound_mass_cache) >= 4096:
                self._bound_mass_cache.clear()
            self._bound_mass_cache[key] = (bound_vector, bundle, masses)
        return masses

    def _upper_items(self, context: _TagSetContext,
                     bound_vector: Optional[np.ndarray],
                     scalar_bound: float) -> np.ndarray:
        """Per-item admissible score bounds for one seeker's query.

        The bound is the paper's social-mass cap applied item-wise.  With a
        materialized cluster ``bound_vector`` the tag-``t`` mass of item
        ``i`` is at most ``Σ_{v ∈ taggers(i,t)} bound_vector[v]`` —
        endorsers no cluster member reaches contribute nothing, so remote
        shards' bounds collapse even for globally popular items — and the
        result is memoised per cluster on the tag-set context.  Without one
        it degrades to the scalar per-seeker cap ``b·tf(i,t)``.  Either way
        ``u_i = (1/m)·Σ_t [α·ntf + (1−α)·min(1, mass_bound/Z_t)]``
        dominates the exact blended score, and a shard's upper bound is the
        max of ``u_i`` over its candidates.
        """
        alpha = self._config.scoring.alpha
        if bound_vector is not None:
            cached = context.upper_cache.get(id(bound_vector))
            if cached is not None and cached[0] is bound_vector:
                return cached[1]
            social_total = np.zeros(context.candidates.shape[0],
                                    dtype=np.float64)
            for tag_context in context.contexts:
                if tag_context is None:
                    continue
                masses = self._bound_masses(tag_context.bundle.tag,
                                            tag_context.bundle, bound_vector)
                social_total += np.minimum(
                    1.0, np.where(tag_context.found,
                                  masses[tag_context.positions], 0.0)
                    / tag_context.normaliser)
            upper = alpha * context.textual \
                + (1.0 - alpha) * (social_total / context.m)
            if len(context.upper_cache) >= 64:
                context.upper_cache.clear()
            context.upper_cache[id(bound_vector)] = (bound_vector, upper)
            return upper
        social_total = np.zeros(context.candidates.shape[0], dtype=np.float64)
        for tag_context in context.contexts:
            if tag_context is None:
                continue
            social_total += np.minimum(1.0, scalar_bound * tag_context.ntf)
        return alpha * context.textual + (1.0 - alpha) * (social_total / context.m)

    def _static_threshold(self, context: _TagSetContext, k: int
                          ) -> Optional[float]:
        """The k-th largest textual-only lower bound, or ``None`` for "no pruning".

        At least ``k`` items score at least this much (social mass is
        non-negative), so a shard strictly below it cannot place an item —
        not even a tie, which keeps the merged ranking bit-identical.
        """
        if k in context.threshold_cache:
            return context.threshold_cache[k]
        n = int(context.textual.shape[0])
        if not 0 < k < n:
            threshold: Optional[float] = None
        else:
            lower = self._config.scoring.alpha * context.textual
            threshold = float(np.partition(lower, n - k)[n - k])
        if len(context.threshold_cache) >= 64:
            context.threshold_cache.clear()
        context.threshold_cache[k] = threshold
        return threshold

    def _scatter_plan(self, context: _TagSetContext, upper_items: np.ndarray,
                      k: int, cacheable: bool) -> _ScatterPlan:
        """The scatter layout for one (tag set, bound array, k) triple.

        Cacheable whenever ``upper_items`` itself is cached (cluster-bound
        path): the probe selection, shard ranking and probe-exclusion
        masking depend only on bounds and the static threshold, so repeat
        queries from the same cluster skip all of it.  Seeker-scalar bound
        arrays are ephemeral; their plans are built per query.
        """
        key = (id(upper_items), k)
        if cacheable:
            plan = context.scatter_cache.get(key)
            if plan is not None and plan.upper_ref is upper_items:
                return plan
        threshold = self._static_threshold(context, k)
        n = int(context.candidates.shape[0])
        ranked: List[Tuple[float, int, np.ndarray]] = []
        pruned_static = 0
        for partition, shard in enumerate(context.shards):
            if not shard.shape[0]:
                continue
            upper = float(upper_items[shard].max())
            if threshold is not None and upper < threshold:
                pruned_static += 1
                continue
            ranked.append((upper, partition, shard))
        ranked.sort(key=lambda entry: (-entry[0], entry[1]))
        probe: Optional[np.ndarray] = None
        probe_mask: Optional[np.ndarray] = None
        probe_size = max(32, 4 * k)
        viable_total = sum(int(shard.shape[0]) for _u, _p, shard in ranked)
        if 0 < k < n and viable_total > probe_size and ranked:
            viable = (ranked[0][2] if len(ranked) == 1 else
                      np.concatenate([shard for _u, _p, shard in ranked]))
            cut = int(viable.shape[0]) - probe_size
            probe = viable[np.argpartition(upper_items[viable], cut)[cut:]]
            probe_mask = np.zeros(n, dtype=bool)
            probe_mask[probe] = True
        residual_uppers: List[float] = []
        residual_partitions: List[int] = []
        residual_parts: List[np.ndarray] = []
        offsets: List[int] = []
        total = 0
        for upper, partition, shard in ranked:
            residual = shard if probe_mask is None \
                else shard[~probe_mask[shard]]
            residual_uppers.append(upper)
            residual_partitions.append(partition)
            residual_parts.append(residual)
            total += int(residual.shape[0])
            offsets.append(total)
        residual_union = (np.concatenate(residual_parts) if residual_parts
                          else np.zeros(0, dtype=np.int64))
        plan = _ScatterPlan(upper_items, threshold, probe, residual_uppers,
                            residual_partitions, residual_union, offsets,
                            pruned_static)
        if cacheable:
            if len(context.scatter_cache) >= 64:
                context.scatter_cache.clear()
            context.scatter_cache[key] = plan
        return plan

    def preview(self, query: Query) -> PartitionBounds:
        """The bound phase only — what ``repro explain`` prints.

        Never computes a proximity vector: the scalar cap comes from
        :meth:`ProximityMeasure.frontier_bound` (exact for shard-served and
        warm-cached seekers, degrading to the admissible 1.0 otherwise) and
        the cluster bound vector is a dictionary lookup, so explaining a
        query costs index arithmetic, not a PPR power iteration.  The
        ``pruned`` verdicts use the static textual-only threshold;
        execution can prune *more* once scanned shards supply exact scores
        as progressive thresholds.
        """
        self._dataset.graph.validate_user(query.seeker)
        bound = self._proximity.frontier_bound(query.seeker)
        bound = 1.0 if bound is None else min(1.0, max(0.0, float(bound)))
        context = self._tagset(query.tags)
        upper_items = self._upper_items(context,
                                        self._cluster_bound(query.seeker),
                                        bound)
        threshold = self._static_threshold(context, query.k)
        entries: List[Dict[str, object]] = []
        for partition, shard in enumerate(context.shards):
            upper = float(upper_items[shard].max()) if shard.shape[0] else 0.0
            pruned = bool(shard.shape[0]) and threshold is not None \
                and upper < threshold
            entries.append({
                "partition": partition,
                "candidates": int(shard.shape[0]),
                "upper_bound": upper,
                "pruned": pruned,
            })
        return PartitionBounds(frontier_bound=bound, prune_threshold=threshold,
                               partitions=tuple(entries))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def search(self, query: Query) -> QueryResult:
        """Answer ``query`` by partitioned scatter-gather (exact semantics).

        When a tracer is installed and the request is sampled, the scatter
        sweep scans shard-by-shard under per-shard ``shard.scan`` spans
        (items in / pruned / scanned per shard) instead of the concatenated
        union slice.  Per-item scores are segment-independent, the sweep
        threshold is fixed, and the top-k fold is associative, so both
        orders produce bit-identical results — the traced path trades one
        concatenated scan for visibility, never for correctness.
        """
        started_at = time.perf_counter()
        tracer = obs_trace.get_tracer()
        make_span = tracer.span if tracer is not None else _no_span
        with make_span("executor.search",
                       partitions=self.num_partitions) as root:
            return self._search(query, started_at, make_span, root)

    def _search(self, query: Query, started_at: float, make_span,
                root) -> QueryResult:
        self._dataset.graph.validate_user(query.seeker)
        seeker = query.seeker
        alpha = self._config.scoring.alpha
        accountant = AccessAccountant()

        with make_span("proximity.vector"):
            proximity = self._scoring.proximity_vector_array(seeker)
        accountant.charge_user_visit(int(np.count_nonzero(proximity)))

        with make_span("tagset.context") as tagset_span:
            context = self._tagset(query.tags)
            candidates = context.candidates
            n = int(candidates.shape[0])
            tagset_span.set(candidates=n)
        accountant.charge_sequential(context.sequential)
        accountant.charge_candidate(n)

        # Scalar-equivalent random-access charges over the WHOLE candidate
        # block: cheap integer arithmetic, deliberately not partitioned so
        # pruning can never change the reported accounting.  The base
        # charges are tag-set state; only the seeker's own endorsements
        # need subtracting per query.
        with make_span("accounting.charges"):
            charges = context.base_charges
            if n and not self._config.scoring.include_seeker:
                adjust: Optional[np.ndarray] = None
                for tag_context in context.contexts:
                    if tag_context is None \
                            or not tag_context.bundle.seeker_count(seeker):
                        continue
                    seeker_flags = tag_context.bundle.seeker_flags(seeker)
                    term = np.where(
                        tag_context.found,
                        seeker_flags[tag_context.positions].astype(np.int64), 0)
                    adjust = term if adjust is None else adjust + term
                if adjust is not None:
                    charges = charges - adjust
            accountant.charge_random(int(charges.sum()))

        # The dense vector is already in hand, so its exact maximum is the
        # scalar cap; the materialized cluster bound (when the seeker is
        # shard-served) supplies the per-user mass cap.
        with make_span("bounds.compute") as bounds_span:
            cluster_bound = self._cluster_bound(seeker)
            scalar_bound = float(proximity.max()) if proximity.shape[0] else 0.0
            upper_items = self._upper_items(context, cluster_bound,
                                            min(1.0, max(0.0, scalar_bound)))
            plan = self._scatter_plan(context, upper_items, query.k,
                                      cacheable=cluster_bound is not None)
            bounds_span.set(
                bound_path="cluster" if cluster_bound is not None else "scalar",
                pruned_static=plan.pruned_static)

        # Scatter with progressive pruning — the paper's bound-based early
        # termination at shard granularity.  The probe scores the
        # highest-bound handful of candidates across the statically
        # surviving shards — bound order correlates with score order, so
        # its exact k-th score is a near-optimal progressive threshold
        # after touching a few dozen items.  The sweep then re-prunes
        # whole shards against the tightened threshold and scans what is
        # left of them (probed items excluded, so nothing is scored twice),
        # with item-level filtering inside the scan doing the rest.  Every
        # cut is a strict inequality on admissible bounds, so nothing
        # skipped could have placed, ties included, and the merged ranking
        # is bit-identical to the full scan.
        threshold = plan.static_threshold
        pruned = plan.pruned_static
        scanned = 0
        merged = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
                  np.zeros(0, dtype=np.float64))
        with make_span("scatter.sweep") as sweep_span:
            if plan.probe is not None:
                with make_span("probe.scan") as probe_span:
                    partial = self._scan_shard(
                        plan.probe, threshold, context, upper_items,
                        proximity, alpha, span=probe_span)
                merged = self._merge_topk(merged, partial, candidates, query.k)
                threshold = self._tighten(threshold, merged, query.k, n)
            # The tightened threshold always cuts a suffix of the bound-desc
            # shard order, so the surviving residuals are one prefix slice
            # of the precomputed union.
            keep = len(plan.residual_uppers)
            if threshold is not None:
                while keep and plan.residual_uppers[keep - 1] < threshold:
                    keep -= 1
            pruned += len(plan.residual_uppers) - keep
            scanned = keep
            if keep:
                end = plan.residual_offsets[keep - 1]
                union = plan.residual_union[:end]
                if union.shape[0]:
                    starts = [0] + plan.residual_offsets
                    stops = plan.residual_offsets[:keep]
                    if root:
                        merged = self._sweep_traced(
                            plan, starts, stops, threshold, merged, candidates,
                            query, context, upper_items, proximity, alpha,
                            make_span)
                    else:
                        merged = self._merge_topk(
                            merged,
                            self._scan_shard(union, threshold, context,
                                             upper_items, proximity, alpha),
                            candidates, query.k)
            sweep_span.set(partitions_scanned=scanned,
                           partitions_pruned=pruned)

        with make_span("gather.materialize"):
            top, top_scores, top_social = merged
            accountant.charge_random(int(charges[top].sum()))

            items = [
                ScoredItem(item_id=item_id, score=score, textual=textual,
                           social=social)
                for item_id, score, textual, social in zip(
                    candidates[top].tolist(), top_scores.tolist(),  # lint: allow(hot-path-materialisation) -- k-sized top-k slices
                    context.textual[top].tolist(), top_social.tolist())  # lint: allow(hot-path-materialisation) -- k-sized top-k slices
            ]
        with self._lock:
            self.statistics.searches += 1
            self.statistics.partitions_scanned += scanned
            self.statistics.partitions_pruned += pruned
        root.set(candidates=n, partitions_scanned=scanned,
                 partitions_pruned=pruned)
        return QueryResult(
            query=query,
            items=items,
            algorithm=self._label,
            latency_seconds=time.perf_counter() - started_at,
            accounting=accountant,
            is_exact=not self._approximate,
        )

    def _sweep_traced(self, plan: _ScatterPlan, starts, stops,
                      threshold: Optional[float], merged, candidates,
                      query: Query, context: _TagSetContext, upper_items,
                      proximity, alpha: float, make_span):
        """The inline sweep, shard-by-shard under per-shard spans.

        Same fixed threshold and same fold rule as the union scan, so the
        merged top-k (and the pruned/scanned counts, which are per-item
        comparisons either way) are bit-identical.
        """
        for index, (start, stop) in enumerate(zip(starts, stops)):
            if stop <= start:
                continue
            with make_span("shard.scan",
                           partition=plan.residual_partitions[index],
                           upper_bound=plan.residual_uppers[index]) as shard_span:
                partial = self._scan_shard(
                    plan.residual_union[start:stop], threshold, context,
                    upper_items, proximity, alpha, span=shard_span)
            merged = self._merge_topk(merged, partial, candidates, query.k)
        return merged

    @staticmethod
    def _merge_topk(merged, partial, candidates: np.ndarray, k: int):
        """Fold one shard's scored candidates into the running global top-k.

        Reselecting over the concatenation under the same (score desc,
        item id asc) rule is identical to one global selection, because
        every fold keeps the best ``k``.
        """
        if not merged[0].shape[0]:
            positions, scores, social = partial
        else:
            positions = np.concatenate([merged[0], partial[0]])
            scores = np.concatenate([merged[1], partial[1]])
            social = np.concatenate([merged[2], partial[2]])
        best = select_topk(candidates[positions], scores, k)
        return positions[best], scores[best], social[best]

    @staticmethod
    def _tighten(threshold: Optional[float], merged, k: int,
                 n: int) -> Optional[float]:
        """Raise the threshold to the merged k-th exact score, when held.

        ``merged`` is ordered best-first, so once it holds ``k`` items its
        last score is an exact lower bound at least ``k`` items reach —
        admissible for the same strict-inequality cut as the static
        threshold (only applied while pruning is legal, i.e. ``k < n``).
        """
        if not 0 < k < n or merged[1].shape[0] < k:
            return threshold
        progressive = float(merged[1][k - 1])
        if threshold is None or progressive > threshold:
            return progressive
        return threshold

    def _scan_shard(self, shard: np.ndarray, threshold: Optional[float],
                    context: _TagSetContext, upper_items: np.ndarray,
                    proximity: np.ndarray, alpha: float, span=NULL_SPAN
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact scores of one shard's viable candidates.

        Candidates whose admissible per-item bound falls strictly below the
        threshold are dropped *before* the social gather — the item-level
        form of the shard cut — so a mostly-beaten shard pays for its
        handful of contenders, not its whole block.  Returns ``(positions,
        scores, social)`` with ``positions`` indexing the global candidate
        block.
        The arithmetic replays :meth:`ScoringModel.score_block` per segment
        — same per-tag order, same per-segment reduction order — so scores
        are bit-identical to the single-partition scan.
        """
        items_in = int(shard.shape[0])
        if threshold is not None:
            keep = np.nonzero(upper_items[shard] >= threshold)[0]
            if keep.shape[0] < shard.shape[0]:
                shard = shard[keep]
        count = int(shard.shape[0])
        with self._lock:
            self.statistics.candidates_pruned += items_in - count
            self.statistics.candidates_scanned += count
        span.set(items_in=items_in, items_pruned=items_in - count,
                 items_scanned=count)
        social_total = np.zeros(count, dtype=np.float64)
        for tag_context in context.contexts:
            if tag_context is None:
                continue
            if tag_context.all_found:
                if count:
                    mass = tag_context.bundle.subset_social_mass(
                        proximity, tag_context.positions[shard])
                    social_total += np.minimum(
                        1.0, mass / tag_context.normaliser)
                continue
            found = tag_context.found[shard]
            hit = np.nonzero(found)[0]
            mass = np.zeros(count, dtype=np.float64)
            if hit.shape[0]:
                mass[hit] = tag_context.bundle.subset_social_mass(
                    proximity, tag_context.positions[shard][hit])
            social_total += np.minimum(
                1.0, np.where(found, mass, 0.0) / tag_context.normaliser)
        social = social_total / context.m
        scores = alpha * context.textual[shard] + (1.0 - alpha) * social
        return shard, scores, social
