"""Equivalence properties of partitioned scatter-gather execution.

The contract the planner/executor split rests on: corpus partitioning is
an *execution strategy*, never a different algorithm.  For every top-k
algorithm, every storage backing (python dict stores and the mmap arena),
and before and after live updates, an engine configured with P partitions
must return identical rankings, identical scores and identical access
accounting to the classic single-partition engine.
"""

import pytest

from repro import SocialSearchEngine
from repro.config import (
    DatasetConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    ServiceConfig,
    WorkloadConfig,
)
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from repro.workload import build_dataset, generate_workload

ALGORITHMS = ("exact", "social-first", "ta", "nra", "hybrid")
PARTITION_COUNTS = (2, 3, 4)


def _signature(result):
    return ([item.item_id for item in result.items],
            [item.score for item in result.items],
            result.accounting.to_dict())


def _engine(dataset, partitions, materialize=True, measure="ppr",
            partition_layout=None):
    proximity = ProximityConfig(measure=measure, materialize=True) \
        if materialize else ProximityConfig(measure=measure, cache_size=16)
    engine = SocialSearchEngine(dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5),
        proximity=proximity,
        partitions=partitions,
    ), partitions=partition_layout)
    if materialize:
        engine.proximity.build()
    return engine


@pytest.fixture(scope="module")
def mix(synthetic_dataset):
    return generate_workload(synthetic_dataset,
                             WorkloadConfig(num_queries=10, k=5, seed=7))


@pytest.fixture(scope="module")
def arena_dataset(synthetic_dataset, tmp_path_factory):
    """The same corpus served from the mmap index arena."""
    path = tmp_path_factory.mktemp("partition-arena") / "corpus.arena"
    synthetic_dataset.to_arena(path)
    return Dataset.from_arena(path)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_partitioned_identical_python_backing(synthetic_dataset, mix,
                                              algorithm):
    single = _engine(synthetic_dataset, 1)
    multi = _engine(synthetic_dataset, 4)
    baseline = [_signature(single.run(query, algorithm=algorithm))
                for query in mix]
    observed = [_signature(multi.run(query, algorithm=algorithm))
                for query in mix]
    assert observed == baseline


@pytest.mark.parametrize("algorithm", ("exact", "social-first"))
def test_partitioned_identical_arena_backing(arena_dataset, mix, algorithm):
    single = _engine(arena_dataset, 1)
    multi = _engine(arena_dataset, 4)
    baseline = [_signature(single.run(query, algorithm=algorithm))
                for query in mix]
    observed = [_signature(multi.run(query, algorithm=algorithm))
                for query in mix]
    assert observed == baseline


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
def test_partition_count_never_changes_answers(synthetic_dataset, mix,
                                               partitions):
    single = _engine(synthetic_dataset, 1)
    multi = _engine(synthetic_dataset, partitions)
    for query in mix:
        assert _signature(multi.run(query)) == _signature(single.run(query))
    assert multi.partition_executor is not None
    assert multi.partition_executor.statistics.searches >= len(mix)


def test_partitioned_without_materialized_bounds(synthetic_dataset, mix):
    """The scalar-bound fallback (no cluster bound vectors) is also exact."""
    single = _engine(synthetic_dataset, 1, materialize=False)
    multi = _engine(synthetic_dataset, 4, materialize=False)
    for query in mix:
        assert _signature(multi.run(query)) == _signature(single.run(query))


def test_partitioned_scalar_scoring_routes_single(synthetic_dataset, mix):
    """--scalar engines never fan out, and still answer identically."""
    scalar = SocialSearchEngine(synthetic_dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5, vectorized=False),
        partitions=4))
    scalar_single = SocialSearchEngine(synthetic_dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5, vectorized=False)))
    plan = scalar.planner.plan(mix[0])
    assert plan.executor == "algorithm"
    for query in mix[:3]:
        assert _signature(scalar.run(query)) \
            == _signature(scalar_single.run(query))


def test_partitioned_identical_after_live_updates():
    """Partitioned answers stay exact after tagging + friendship updates."""
    dataset = build_dataset(DatasetConfig(
        name="live", num_users=50, num_items=100, num_tags=12,
        num_actions=700, graph_model="community", avg_degree=6.0,
        homophily=0.6, tag_locality=0.5, seed=13))
    multi = _engine(dataset, 4)
    queries = generate_workload(dataset, WorkloadConfig(num_queries=8, k=5,
                                                        seed=11))
    # Drive the updates through a QueryService so invalidation, shard
    # repair and partition routing all run — the serving configuration.
    from repro.service import QueryService

    updater = DatasetUpdater(dataset)
    tags = dataset.tags()
    with QueryService(multi, ServiceConfig(cache_capacity=0,
                                           cache_ttl_seconds=0.0),
                      updater=updater):
        actions = [
            TaggingAction(user_id=3, item_id=100 + offset, tag=tags[0],
                          timestamp=10_000 + offset)
            for offset in range(5)
        ] + [
            TaggingAction(user_id=7, item_id=5, tag=tags[1], timestamp=10_100),
            TaggingAction(user_id=11, item_id=200, tag="fresh-tag",
                          timestamp=10_101),
        ]
        updater.add_actions(actions)
        updater.add_friendships([(0, 49, 0.7), (5, 23, 1.0)])

        single = _engine(dataset, 1)
        for query in queries:
            assert _signature(multi.run(query)) \
                == _signature(single.run(query))
        # The freshly written items were routed to real partitions (the
        # first endorser's community), not left to the hash fallback.
        layout = multi.partitions
        assert layout is not None
        assert layout.partition_of_item(200) == layout.partition_of_user(11)


def test_alpha_sweep_stays_equivalent(synthetic_dataset, mix):
    for alpha in (0.0, 0.3, 1.0):
        single = SocialSearchEngine(synthetic_dataset, EngineConfig(
            algorithm="exact", scoring=ScoringConfig(alpha=alpha),
            proximity=ProximityConfig(measure="ppr", materialize=True)))
        single.proximity.build()
        multi = SocialSearchEngine(synthetic_dataset, EngineConfig(
            algorithm="exact", scoring=ScoringConfig(alpha=alpha),
            proximity=ProximityConfig(measure="ppr", materialize=True),
            partitions=4))
        multi.proximity.build()
        for query in mix:
            assert _signature(multi.run(query)) == _signature(single.run(query))
