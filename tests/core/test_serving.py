"""Serving decisions: planner, engine routing, and cache keys.

The planner serves a query exact unless it says ``effort="fast"`` *and*
the engine built a landmark sketch, records the decision in the
:class:`~repro.core.plan.ExecutionPlan`, and the engine routes
accordingly — never serving an approximate answer to a query that did not
opt in, including through the service cache.
"""

import pytest

from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core import Query, SocialSearchEngine
from repro.core.plan import (
    EXECUTOR_PARTITIONED,
    SERVING_EXACT,
    SERVING_LANDMARK,
)
from repro.errors import InvalidQueryError
from repro.eval.quality import result_signature
from repro.service.cache import CacheKey


@pytest.fixture(scope="module")
def serving_engine(synthetic_dataset):
    """Partitioned engine with a landmark executor (landmarks > 0)."""
    return SocialSearchEngine(synthetic_dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5, vectorized=True),
        proximity=ProximityConfig(measure="ppr", materialize=True,
                                  landmarks=8),
        partitions=4))


@pytest.fixture(scope="module")
def plain_engine(synthetic_dataset):
    """Partitioned engine without a landmark tier (landmarks = 0)."""
    return SocialSearchEngine(synthetic_dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=0.5, vectorized=True),
        proximity=ProximityConfig(measure="ppr", materialize=True),
        partitions=4))


def _query(**hints):
    return Query(seeker=0, tags=("tag-1",), k=5, **hints)


class TestServingDecision:
    def test_no_hints_serves_exact(self, serving_engine):
        decision = serving_engine.planner.serving(_query())
        assert decision.mode == SERVING_EXACT

    def test_effort_exact_pins_exact(self, serving_engine):
        decision = serving_engine.planner.serving(_query(effort="exact"))
        assert decision.mode == SERVING_EXACT

    def test_effort_fast_picks_landmark_when_available(self, serving_engine):
        decision = serving_engine.planner.serving(_query(effort="fast"))
        assert decision.mode == SERVING_LANDMARK

    def test_removed_effort_level_is_rejected(self):
        with pytest.raises(InvalidQueryError):
            _query(effort="balanced")

    def test_hints_apply_to_partitioned_route_only(self, serving_engine):
        decision = serving_engine.planner.serving(
            _query(effort="fast"), executor="algorithm")
        assert decision.mode == SERVING_EXACT

    def test_decisions_are_counted(self, synthetic_dataset):
        engine = SocialSearchEngine(synthetic_dataset, EngineConfig(
            algorithm="exact",
            scoring=ScoringConfig(alpha=0.5, vectorized=True),
            proximity=ProximityConfig(measure="ppr", materialize=True,
                                      landmarks=4),
            partitions=4))
        engine.planner.serving(_query(effort="fast"))
        engine.planner.serving(_query(effort="exact"))
        engine.planner.serving(_query())
        stats = engine.planner.serving_stats()
        assert stats[SERVING_LANDMARK] == 1
        assert stats[SERVING_EXACT] == 2
        assert engine.planner.route_stats()["serving_decisions"] == stats


class TestPlanRecord:
    def test_plan_records_serving_fields(self, serving_engine):
        plan = serving_engine.planner.plan(_query(effort="fast"))
        assert plan.executor == EXECUTOR_PARTITIONED
        assert plan.serving_mode == SERVING_LANDMARK
        data = plan.to_dict()
        assert data["serving_mode"] == SERVING_LANDMARK
        assert data["serving_reason"]
        assert "serving:" in plan.describe()

    def test_unhinted_plan_stays_exact(self, serving_engine):
        plan = serving_engine.planner.plan(_query())
        assert plan.serving_mode == SERVING_EXACT
        assert "serving_reason" not in plan.to_dict()


class TestEngineRouting:
    def test_fast_effort_serves_landmark_answer(self, serving_engine):
        result = serving_engine.run(_query(effort="fast"))
        assert result.algorithm == "landmark"
        assert not result.is_exact

    def test_fast_effort_without_a_sketch_is_the_exact_answer(
            self, plain_engine):
        exact = plain_engine.run(_query())
        result = plain_engine.run(_query(effort="fast"))
        assert result_signature(result) == result_signature(exact)
        assert result.algorithm == "exact"
        assert result.is_exact
        plan = plain_engine.planner.plan(_query(effort="fast"))
        assert plan.serving_mode == SERVING_EXACT
        assert "no landmark tier" in plan.serving_reason

    def test_unhinted_query_is_exact(self, serving_engine):
        result = serving_engine.run(_query())
        assert result.is_exact


class TestCacheKeySeparation:
    def test_only_fast_gets_its_own_entry(self):
        unhinted = CacheKey.for_query(_query(), algorithm="exact")
        exact = CacheKey.for_query(_query(effort="exact"), algorithm="exact")
        fast = CacheKey.for_query(_query(effort="fast"), algorithm="exact")
        assert unhinted == exact
        assert fast != unhinted
