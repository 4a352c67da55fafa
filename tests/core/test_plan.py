"""Tests for the query planner layer (core/plan.py)."""

import pytest

from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core.plan import EXECUTOR_ALGORITHM
from repro.core.query import Query


def _engine(dataset, algorithm="exact", vectorized=True, materialize=False):
    proximity = ProximityConfig(measure="ppr", materialize=True) \
        if materialize else ProximityConfig(measure="ppr", cache_size=16)
    engine = SocialSearchEngine(dataset, EngineConfig(
        algorithm=algorithm,
        scoring=ScoringConfig(alpha=0.5, vectorized=vectorized),
        proximity=proximity,
    ))
    if materialize:
        engine.proximity.build()
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

    def test_scalar_scoring_routes_algorithm(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, vectorized=False)
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.executor == EXECUTOR_ALGORITHM
        assert plan.scoring_path == "scalar"

    def test_route_is_memoised(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        first = engine.planner.route("exact")
        assert engine.planner.route("exact") is first


class TestPlanRecord:
    def test_to_dict_shape(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        data = engine.planner.plan(_query(synthetic_dataset)).to_dict()
        for key in ("query", "algorithm", "executor", "backing",
                    "pending_delta", "proximity_path", "scoring_path",
                    "reason"):
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
        engine = _engine(synthetic_dataset, materialize=True)
        text = engine.explain_plan(_query(synthetic_dataset)).describe()
        assert "executor:" in text
        assert "bounds:     frontier=" in text

    def test_describe_block(self, synthetic_dataset):
        engine = _engine(synthetic_dataset)
        block = engine.planner.describe()
        assert block["backing"] == "python"
        assert block["scoring_path"] == "vectorized"

    def test_arena_backing_reported(self, synthetic_dataset, tmp_path):
        from repro.storage import Dataset

        path = tmp_path / "corpus.arena"
        synthetic_dataset.to_arena(path)
        engine = _engine(Dataset.from_arena(path))
        plan = engine.planner.plan(_query(synthetic_dataset))
        assert plan.backing == "arena"


class TestPreview:
    def test_preview_carries_the_frontier_bound(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, materialize=True)
        query = _query(synthetic_dataset)
        plan = engine.explain_plan(query)
        assert plan.frontier_bound == engine.proximity.frontier_bound(
            query.seeker)
        assert plan.frontier_bound is not None
        assert engine.planner.plan(query).frontier_bound is None

    def test_preview_does_not_execute(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, materialize=True)
        engine.explain_plan(_query(synthetic_dataset))
        assert engine.proximity.statistics.lookups == 0

    def test_plan_and_execute_agree(self, synthetic_dataset):
        engine = _engine(synthetic_dataset, materialize=True)
        query = _query(synthetic_dataset)
        plan = engine.planner.plan(query)
        result = engine.run(query)
        assert plan.executor == EXECUTOR_ALGORITHM
        assert result.algorithm == plan.algorithm == "exact"
