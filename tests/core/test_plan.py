"""Tests for the query planner layer (core/plan.py)."""

import pytest

from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core.plan import EXECUTOR_ALGORITHM, EXECUTOR_PARTITIONED
from repro.core.query import Query


def _engine(dataset, partitions=1, algorithm="exact", vectorized=True,
            materialize=False):
    proximity = ProximityConfig(measure="ppr", materialize=True) \
        if materialize else ProximityConfig(measure="ppr", cache_size=16)
    engine = SocialSearchEngine(dataset, EngineConfig(
        algorithm=algorithm,
        scoring=ScoringConfig(alpha=0.5, vectorized=vectorized),
        proximity=proximity,
        partitions=partitions,
    ))
    if materialize:
        engine.proximity.build()
    return engine


def _query(dataset, k=5):
    return Query(seeker=1, tags=(dataset.tags()[0], dataset.tags()[1]), k=k)


class TestRouting:
    def test_exact_with_partitions_scatters(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4)
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.executor == EXECUTOR_PARTITIONED
        assert plan.partitions == 4
        assert plan.algorithm == "exact"

    def test_single_partition_routes_algorithm(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=1)
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.executor == EXECUTOR_ALGORITHM
        assert plan.partitions == 1
        assert plan.fan_out == 1

    def test_frontier_algorithms_do_not_fan_out(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4)
        for algorithm in ("social-first", "ta", "nra", "hybrid"):
            plan = engine.planner.plan(_query(synthetic_dataset),
                                       algorithm=algorithm)
            assert plan.executor == EXECUTOR_ALGORITHM
            assert plan.fan_out == 1
            assert algorithm in plan.reason

    def test_scalar_scoring_routes_algorithm(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4, vectorized=False)
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.executor == EXECUTOR_ALGORITHM
        assert plan.scoring_path == "scalar"

    def test_route_is_memoised(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4)
        first = engine.planner.route("exact")
        assert engine.planner.route("exact") is first


class TestPlanRecord:
    def test_to_dict_shape(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=2)
        data = engine.planner.plan(_query(synthetic_dataset)).to_dict()
        for key in ("query", "algorithm", "executor", "backing",
                    "pending_delta", "proximity_path", "scoring_path",
                    "partitions", "fan_out", "reason"):
            assert key in data
        assert data["backing"] == "python"
        assert data["pending_delta"] == 0

    def test_proximity_path_names(self, synthetic_dataset):
        assert _engine(synthetic_dataset).planner.proximity_path() == "cached"
        materialized = _engine(synthetic_dataset, materialize=True)
        assert materialized.planner.proximity_path() == "materialized"
        lazy = SocialSearchEngine(synthetic_dataset, EngineConfig(
            proximity=ProximityConfig(measure="ppr", materialize=True)))
        assert lazy.planner.proximity_path() == "materialized-lazy"
        online = SocialSearchEngine(synthetic_dataset, EngineConfig(
            proximity=ProximityConfig(measure="ppr", cache_size=0)))
        assert online.planner.proximity_path() == "online"

    def test_describe_is_readable(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4, materialize=True)
        text = engine.explain_plan(_query(synthetic_dataset)).describe()
        assert "executor:" in text
        assert "partitions:" in text
        assert "shard 0:" in text

    def test_describe_block(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4)
        block = engine.planner.describe()
        assert block["partitions"] == 4
        assert block["backing"] == "python"
        assert block["scoring_path"] == "vectorized"

    def test_arena_backing_reported(self, synthetic_dataset, tmp_path):
        from repro.storage import Dataset

        path = tmp_path / "corpus.arena"
        synthetic_dataset.to_arena(path)
        engine = _engine(Dataset.from_arena(path), partitions=2)
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.backing == "arena"


class TestPreview:
    def test_preview_carries_partition_bounds(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4, materialize=True)
        plan = engine.explain_plan(_query(synthetic_dataset))
        assert plan.partition_previews is not None
        assert len(plan.partition_previews) == 4
        total = sum(preview.candidates for preview in plan.partition_previews)
        assert total > 0
        assert plan.fan_out <= 4
        assert plan.frontier_bound is not None

    def test_preview_does_not_execute(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4, materialize=True)
        engine.explain_plan(_query(synthetic_dataset))
        assert engine.partition_executor.statistics.searches == 0

    def test_plan_and_execute_agree(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, partitions=4, materialize=True)
        query = _query(synthetic_dataset)
        plan = engine.planner.plan(query)
        result = engine.run(query)
        assert plan.executor == EXECUTOR_PARTITIONED
        assert result.algorithm == plan.algorithm == "exact"
        assert engine.partition_executor.statistics.searches == 1
