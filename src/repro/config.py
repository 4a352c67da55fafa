"""Configuration objects shared across the library.

All configuration is expressed as frozen dataclasses with eager validation:
constructing an invalid configuration raises :class:`ConfigurationError`
immediately rather than failing deep inside an algorithm.  The dataclasses
are deliberately plain (no dynamic attributes) so they serialise cleanly to
dictionaries for experiment logs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from .errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ScoringConfig:
    """Parameters of the blended social/textual scoring function.

    Attributes
    ----------
    alpha:
        Weight of the textual component in ``[0, 1]``.  ``alpha = 1`` means a
        purely textual (non-social) ranking, ``alpha = 0`` a purely social one.
    include_seeker:
        Whether the seeker's own tagging actions contribute to the social
        component.  The paper-family convention is to exclude them (a user's
        own bookmarks are not "help from friends"), which is the default.
    proximity_floor:
        Proximity values below this threshold are treated as zero.  This
        bounds the social expansion of frontier-based algorithms.
    vectorized:
        Whether algorithms may use the numpy scoring kernels (batched
        posting-list reads, CSR endorser reductions, ``argpartition``
        top-k).  The kernels return exactly the same rankings as the scalar
        path; disabling them is the scalar fallback for debugging and for
        the benchmark suite's speedup baseline.
    """

    alpha: float = 0.5
    include_seeker: bool = False
    proximity_floor: float = 1e-4
    vectorized: bool = True

    def __post_init__(self) -> None:
        _require(0.0 <= self.alpha <= 1.0, f"alpha must be in [0, 1], got {self.alpha}")
        _require(
            0.0 <= self.proximity_floor < 1.0,
            f"proximity_floor must be in [0, 1), got {self.proximity_floor}",
        )

    def to_dict(self) -> Dict[str, object]:
        """Return a plain-dict view suitable for experiment logs."""
        return asdict(self)


@dataclass(frozen=True)
class ProximityConfig:
    """Parameters of social proximity measures.

    Attributes
    ----------
    measure:
        Registry name of the proximity measure (for example
        ``"shortest-path"``, ``"ppr"``, ``"katz"``, ``"adamic-adar"``).
    decay:
        Multiplicative decay applied per hop by path-based measures.
    damping:
        Damping factor (restart probability complement) for personalised
        PageRank.
    max_hops:
        Hard cap on the number of hops explored from the seeker.
    katz_beta:
        Attenuation factor of the truncated Katz measure.
    ppr_iterations:
        Number of power iterations for personalised PageRank.
    ppr_tolerance:
        Early-exit L1 tolerance for personalised PageRank.
    cache_size:
        Number of seeker proximity vectors kept in the LRU cache
        (0 disables caching).
    materialize:
        Wrap the measure in
        :class:`~repro.proximity.materialized.MaterializedProximity`: exact
        per-seeker proximity rows are served from per-cluster shards
        (precomputed offline) and refined lazily through the online measure
        for seekers the shards do not cover.  The LRU cache wrapper is
        skipped in this mode — shard lookups are already O(touch).
    materialize_eager:
        Build all shard rows at engine construction.  Off by default: the
        offline build belongs in ``repro build-arena`` or an explicit
        warm-up, not on the query path.
    cluster_rounds:
        Label-propagation rounds used to partition seekers into shards.
    landmarks:
        Size of the landmark-sketch serving tier
        (:class:`~repro.proximity.landmarks.LandmarkProximity`).  When
        positive, engines with a partitioned layout additionally build a
        landmark executor the planner routes ``effort="fast"`` queries to.
        0 (the default) disables the tier — ``effort="fast"`` is then
        served exact; standalone sketches default to 16 landmarks.
    """

    measure: str = "shortest-path"
    decay: float = 0.5
    damping: float = 0.85
    max_hops: int = 4
    katz_beta: float = 0.3
    ppr_iterations: int = 30
    ppr_tolerance: float = 1e-8
    cache_size: int = 128
    materialize: bool = False
    materialize_eager: bool = False
    cluster_rounds: int = 5
    landmarks: int = 0

    def __post_init__(self) -> None:
        _require(bool(self.measure), "measure name must be a non-empty string")
        _require(0.0 < self.decay <= 1.0, f"decay must be in (0, 1], got {self.decay}")
        _require(0.0 < self.damping < 1.0, f"damping must be in (0, 1), got {self.damping}")
        _require(self.max_hops >= 1, f"max_hops must be >= 1, got {self.max_hops}")
        _require(0.0 < self.katz_beta < 1.0, f"katz_beta must be in (0, 1), got {self.katz_beta}")
        _require(self.ppr_iterations >= 1, "ppr_iterations must be >= 1")
        _require(self.ppr_tolerance > 0.0, "ppr_tolerance must be positive")
        _require(self.cache_size >= 0, "cache_size must be non-negative")
        _require(self.cluster_rounds >= 1,
                 f"cluster_rounds must be >= 1, got {self.cluster_rounds}")
        _require(self.landmarks >= 0,
                 f"landmarks must be non-negative, got {self.landmarks}")
        _require(not (self.materialize_eager and not self.materialize),
                 "materialize_eager requires materialize")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class EngineConfig:
    """Top-level configuration of :class:`repro.core.engine.SocialSearchEngine`.

    Attributes
    ----------
    algorithm:
        Registry name of the default top-k algorithm.
    scoring:
        Blended scoring parameters.
    proximity:
        Proximity-measure parameters.
    early_termination:
        Whether bound-based algorithms are allowed to stop before exhausting
        their inputs.  Disabling this is only useful for ablation studies.
    batch_size:
        Number of sequential accesses performed per scheduling decision in
        interleaving algorithms.
    partitions:
        Number of item shards the corpus is partitioned into for
        scatter-gather execution (see :mod:`repro.core.partition_exec`).
        1 (the default) keeps the classic single-partition layout; the
        planner only fans exact vectorized scans out, so every other route
        is unaffected by this knob.
    partition_seed:
        Seed of the label-propagation pass that groups users into the
        communities the item shards follow; fixed so partition layouts are
        reproducible across processes and CI runs.
    """

    algorithm: str = "social-first"
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    proximity: ProximityConfig = field(default_factory=ProximityConfig)
    early_termination: bool = True
    batch_size: int = 16
    partitions: int = 1
    partition_seed: int = 29

    def __post_init__(self) -> None:
        _require(bool(self.algorithm), "algorithm name must be a non-empty string")
        _require(self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}")
        _require(self.partitions >= 1,
                 f"partitions must be >= 1, got {self.partitions}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "scoring": self.scoring.to_dict(),
            "proximity": self.proximity.to_dict(),
            "early_termination": self.early_termination,
            "batch_size": self.batch_size,
            "partitions": self.partitions,
            "partition_seed": self.partition_seed,
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of :class:`repro.service.QueryService` and its HTTP front end.

    Attributes
    ----------
    cache_capacity:
        Maximum number of query results kept in the service's LRU cache
        (0 disables result caching entirely).
    cache_ttl_seconds:
        Time-to-live of a cached result; 0 means entries never expire on
        their own (they are still evicted by LRU pressure and update-driven
        invalidation).
    invalidation_horizon:
        Hop radius around a user touched by a friendship update within which
        cached results and proximity vectors are considered stale.  0 means
        "use the proximity measure's ``max_hops``".
    compact_threshold:
        Once a watched updater's delta overlays (live updates accumulated on
        top of frozen arena arrays) hold at least this many actions, the
        service folds them into fresh arrays on a background thread.
        0 disables background compaction (deltas then grow until
        :meth:`~repro.storage.updates.DatasetUpdater.compact` is called
        explicitly).
    host / port:
        Bind address of the ``repro serve`` HTTP API.  Port 0 asks the OS
        for an ephemeral port.
    """

    cache_capacity: int = 1024
    cache_ttl_seconds: float = 300.0
    invalidation_horizon: int = 0
    compact_threshold: int = 0
    host: str = "127.0.0.1"
    port: int = 8080

    def __post_init__(self) -> None:
        _require(self.cache_capacity >= 0,
                 f"cache_capacity must be non-negative, got {self.cache_capacity}")
        _require(self.cache_ttl_seconds >= 0.0,
                 f"cache_ttl_seconds must be non-negative, got {self.cache_ttl_seconds}")
        _require(self.invalidation_horizon >= 0,
                 f"invalidation_horizon must be non-negative, got {self.invalidation_horizon}")
        _require(self.compact_threshold >= 0,
                 f"compact_threshold must be non-negative, got {self.compact_threshold}")
        _require(bool(self.host), "host must be a non-empty string")
        _require(0 <= self.port <= 65535, f"port must be in [0, 65535], got {self.port}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the durable write path (WAL + arena generations).

    Attributes
    ----------
    directory:
        Root of the durable store: ``MANIFEST.json`` plus the
        ``gen-<n>.arena`` / ``wal-<n>.log`` generation files.  ``None``
        (the default) disables durability entirely — updates live only in
        the in-memory delta overlays, the pre-WAL behaviour.
    wal_fsync:
        Fsync policy of the write-ahead log: ``"always"`` syncs every
        append before it is acknowledged (the only policy under which an
        acknowledged update unconditionally survives power loss),
        ``"interval"`` syncs at most once per ``wal_fsync_interval_seconds``
        (bounded loss, amortised cost), ``"off"`` leaves durability to the
        OS page cache (survives process crashes only).
    wal_fsync_interval_seconds:
        Maximum staleness of the log under the ``interval`` policy.
    checkpoint_threshold:
        Once the pending delta reaches this many actions the service
        checkpoints — compacts, publishes a new arena generation and
        rotates the WAL — instead of merely folding in memory.  0 disables
        automatic checkpoints (``DurableStore.checkpoint`` can still be
        called explicitly).
    keep_generations:
        Number of superseded generations retained after a checkpoint
        before garbage collection removes them (the current generation is
        always kept; 0 keeps only the current one).
    """

    directory: Optional[str] = None
    wal_fsync: str = "always"
    wal_fsync_interval_seconds: float = 0.05
    checkpoint_threshold: int = 0
    keep_generations: int = 0

    _FSYNC_POLICIES = ("always", "interval", "off")

    def __post_init__(self) -> None:
        _require(
            self.wal_fsync in self._FSYNC_POLICIES,
            f"wal_fsync must be one of {self._FSYNC_POLICIES}, "
            f"got {self.wal_fsync!r}",
        )
        _require(self.wal_fsync_interval_seconds >= 0.0,
                 "wal_fsync_interval_seconds must be non-negative")
        _require(self.checkpoint_threshold >= 0,
                 "checkpoint_threshold must be non-negative")
        _require(self.keep_generations >= 0,
                 "keep_generations must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether a durable directory was configured."""
        return self.directory is not None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of a synthetic social-tagging dataset.

    The defaults produce a small corpus suitable for unit tests; the
    benchmark harness scales them up.

    Attributes
    ----------
    num_users / num_items / num_tags:
        Sizes of the three entity domains.
    num_actions:
        Total number of tagging actions ``(user, item, tag)`` to generate.
    graph_model:
        Social graph generator name (``"barabasi-albert"``, ``"erdos-renyi"``,
        ``"watts-strogatz"``, ``"forest-fire"``, ``"community"``).
    avg_degree:
        Target average degree of the social graph.
    tag_zipf_exponent / item_zipf_exponent:
        Skew of tag and item popularity.
    homophily:
        Probability that a tagging action copies an item/tag pair previously
        used by a direct friend instead of sampling globally.  This is the
        knob that makes "help from friends" informative.
    tag_locality:
        Probability that an independently sampled action draws its tag from
        the user's **community vocabulary** (a community-specific permutation
        of the tag popularity ranking) instead of the global one.  Real
        tagging sites show exactly this structure — interest groups coin and
        reuse their own vocabulary — and it is what gives corpus partitions
        their prunable per-shard bounds.  0 (the default) reproduces the
        previous generator bit for bit.
    tags_per_item:
        Mean number of distinct tags attached to an item by one action burst.
    seed:
        Seed of the deterministic pseudo-random generator.
    name:
        Human-readable dataset name used in result tables.
    """

    num_users: int = 200
    num_items: int = 500
    num_tags: int = 50
    num_actions: int = 5000
    graph_model: str = "barabasi-albert"
    avg_degree: float = 8.0
    tag_zipf_exponent: float = 1.1
    item_zipf_exponent: float = 1.05
    homophily: float = 0.5
    tag_locality: float = 0.0
    tags_per_item: float = 2.0
    seed: int = 7
    name: str = "synthetic"

    def __post_init__(self) -> None:
        _require(self.num_users >= 2, "num_users must be >= 2")
        _require(self.num_items >= 1, "num_items must be >= 1")
        _require(self.num_tags >= 1, "num_tags must be >= 1")
        _require(self.num_actions >= 1, "num_actions must be >= 1")
        _require(self.avg_degree > 0.0, "avg_degree must be positive")
        _require(self.tag_zipf_exponent > 0.0, "tag_zipf_exponent must be positive")
        _require(self.item_zipf_exponent > 0.0, "item_zipf_exponent must be positive")
        _require(0.0 <= self.homophily <= 1.0, "homophily must be in [0, 1]")
        _require(0.0 <= self.tag_locality <= 1.0, "tag_locality must be in [0, 1]")
        _require(self.tags_per_item >= 1.0, "tags_per_item must be >= 1")
        _require(bool(self.name), "dataset name must be non-empty")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a synthetic query workload.

    Attributes
    ----------
    num_queries:
        Number of (seeker, tags) query instances to generate.
    tags_per_query:
        Mean number of tags per query (at least one).
    k:
        Default result size requested by the workload.
    seeker_strategy:
        ``"active"`` draws seekers proportionally to their activity,
        ``"uniform"`` draws them uniformly.
    tag_strategy:
        ``"profile"`` draws query tags from the seeker's own tag profile
        (falling back to global popularity), ``"popular"`` from global tag
        popularity, ``"uniform"`` uniformly.
    seed:
        Seed of the deterministic pseudo-random generator.
    """

    num_queries: int = 100
    tags_per_query: float = 2.0
    k: int = 10
    seeker_strategy: str = "active"
    tag_strategy: str = "profile"
    seed: int = 11

    _SEEKER_STRATEGIES = ("active", "uniform")
    _TAG_STRATEGIES = ("profile", "popular", "uniform")

    def __post_init__(self) -> None:
        _require(self.num_queries >= 1, "num_queries must be >= 1")
        _require(self.tags_per_query >= 1.0, "tags_per_query must be >= 1")
        _require(self.k >= 1, "k must be >= 1")
        _require(
            self.seeker_strategy in self._SEEKER_STRATEGIES,
            f"seeker_strategy must be one of {self._SEEKER_STRATEGIES}",
        )
        _require(
            self.tag_strategy in self._TAG_STRATEGIES,
            f"tag_strategy must be one of {self._TAG_STRATEGIES}",
        )

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        return data


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one evaluation run (dataset + workload + engine).

    Attributes
    ----------
    name:
        Experiment identifier used in result tables (for example ``"fig3"``).
    dataset:
        Synthetic dataset parameters.
    workload:
        Query workload parameters.
    engine:
        Engine parameters.
    holdout_fraction:
        Fraction of each seeker's tagging actions withheld from the index and
        used as relevance ground truth for quality metrics.
    """

    name: str = "experiment"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    holdout_fraction: float = 0.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "experiment name must be non-empty")
        _require(
            0.0 <= self.holdout_fraction < 1.0,
            "holdout_fraction must be in [0, 1)",
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "dataset": self.dataset.to_dict(),
            "workload": self.workload.to_dict(),
            "engine": self.engine.to_dict(),
            "holdout_fraction": self.holdout_fraction,
        }


def default_engine_config(alpha: float = 0.5, algorithm: str = "social-first",
                          measure: str = "shortest-path") -> EngineConfig:
    """Convenience constructor used by examples and benchmarks."""
    return EngineConfig(
        algorithm=algorithm,
        scoring=ScoringConfig(alpha=alpha),
        proximity=ProximityConfig(measure=measure),
    )
