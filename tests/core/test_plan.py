"""Tests for the query planner layer (core/plan.py)."""

import pytest

from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core.plan import EXECUTOR_ALGORITHM
from repro.core.query import Query


def _engine(dataset, algorithm="exact"):
    return SocialSearchEngine(dataset, EngineConfig(
        algorithm=algorithm,
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure="ppr", cache_size=16),
    ))


def _warm_engine(dataset):
    """An engine whose cache already holds seeker 1's proximity row."""
    engine = _engine(dataset)
    engine.proximity.vector_array(1)
    return engine


def _query(dataset, k=5):
    return Query(seeker=1, tags=(dataset.tags()[0], dataset.tags()[1]), k=k)


class TestRouting:
    def test_every_algorithm_routes_the_registry_algorithm(
            self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        for algorithm in ("exact", "social-first", "ta", "nra", "hybrid"):
            plan = engine.planner.plan(_query(synthetic_dataset),
                                       algorithm=algorithm)
            assert plan.executor == EXECUTOR_ALGORITHM
            assert plan.algorithm == algorithm
            assert algorithm in plan.reason

    def test_plan_without_algorithm_uses_the_engine_default(
            self, synthetic_dataset):
        engine = _engine(synthetic_dataset, algorithm="nra")
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.executor == EXECUTOR_ALGORITHM
        assert plan.algorithm == "nra"

    def test_route_is_memoised(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        first = engine.planner.route("exact")
        assert engine.planner.route("exact") is first


class TestPlanRecord:
    def test_to_dict_shape(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        data = engine.planner.plan(_query(synthetic_dataset)).to_dict()
        assert set(data) == {"query", "algorithm", "executor",
                             "pending_delta", "proximity_path", "reason"}
        assert data["pending_delta"] == 0

    def test_proximity_path_names(self, synthetic_dataset):
        assert _engine(synthetic_dataset).planner.proximity_path() == "cached"
        online = SocialSearchEngine(synthetic_dataset, EngineConfig(
            proximity=ProximityConfig(measure="ppr", cache_size=0)))
        assert online.planner.proximity_path() == "online"

    def test_describe_is_readable(self, synthetic_dataset):
        engine = _warm_engine(synthetic_dataset)
        text = engine.explain_plan(_query(synthetic_dataset)).describe()
        assert "executor:" in text
        assert "bounds:     frontier=" in text

    def test_describe_block(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        block = engine.planner.describe()
        assert block["pending_delta"] == 0
        assert "backing" not in block
        assert "scoring_path" not in block

    def test_arena_and_in_memory_plans_are_equal(self, synthetic_dataset,
                                                 tmp_path):
        from repro.storage import Dataset

        path = tmp_path / "corpus.arena"
        synthetic_dataset.to_arena(path)
        query = _query(synthetic_dataset)
        mapped = _engine(Dataset.from_arena(path)).planner.plan(query)
        assert mapped == _engine(synthetic_dataset).planner.plan(query)


class TestPreview:
    def test_preview_carries_the_frontier_bound(self, synthetic_dataset):
        engine = _warm_engine(synthetic_dataset)
        query = _query(synthetic_dataset)
        plan = engine.explain_plan(query)
        assert plan.frontier_bound == engine.proximity.frontier_bound(
            query.seeker)
        assert plan.frontier_bound is not None
        assert engine.planner.plan(query).frontier_bound is None

    def test_preview_does_not_execute(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        engine.explain_plan(_query(synthetic_dataset))
        assert engine.proximity.statistics.lookups == 0
        assert len(engine.proximity) == 0

    def test_plan_and_execute_agree(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        query = _query(synthetic_dataset)
        plan = engine.planner.plan(query)
        result = engine.run(query)
        assert plan.executor == EXECUTOR_ALGORITHM
        assert result.algorithm == plan.algorithm == "exact"
