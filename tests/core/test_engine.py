"""Tests for the SocialSearchEngine facade."""

from dataclasses import replace

import pytest

from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core import Query, SocialSearchEngine
from repro.errors import InvalidQueryError, UnknownAlgorithmError
from repro.proximity import CachedProximity


class TestEngineBasics:
    def test_search_returns_k_results(self, engine, synthetic_dataset):
        tag = synthetic_dataset.tags()[0]
        result = engine.search(seeker=1, tags=[tag], k=5)
        assert len(result.items) <= 5
        assert result.algorithm == "social-first"

    def test_search_validates_query(self, engine):
        with pytest.raises(InvalidQueryError):
            engine.search(seeker=1, tags=[], k=5)

    def test_run_with_explicit_algorithm(self, engine, workload):
        result = engine.run(workload[0], algorithm="exact")
        assert result.algorithm == "exact"

    def test_unknown_algorithm_raises(self, engine, workload):
        with pytest.raises(UnknownAlgorithmError):
            engine.run(workload[0], algorithm="definitely-not-real")

    def test_run_many(self, engine, workload):
        results = engine.run_many(workload[:3])
        assert len(results) == 3

    def test_algorithm_instances_are_cached(self, engine, workload):
        engine.run(workload[0], algorithm="exact")
        first = engine._algorithm("exact")
        engine.run(workload[1], algorithm="exact")
        assert engine._algorithm("exact") is first

    def test_algorithms_listing(self, engine):
        names = engine.algorithms()
        assert "social-first" in names
        assert "exact" in names

    def test_default_proximity_is_cached_wrapper(self, synthetic_dataset):
        engine = SocialSearchEngine(synthetic_dataset)
        assert isinstance(engine.proximity, CachedProximity)

    def test_cache_can_be_disabled(self, synthetic_dataset):
        config = EngineConfig(proximity=ProximityConfig(cache_size=0))
        engine = SocialSearchEngine(synthetic_dataset, config)
        assert not isinstance(engine.proximity, CachedProximity)


class TestEngineReconfiguration:
    def test_with_alpha_shares_proximity(self, engine):
        other = engine.with_alpha(0.9)
        assert other.proximity is engine.proximity
        assert other.config.scoring.alpha == pytest.approx(0.9)
        assert engine.config.scoring.alpha == pytest.approx(0.5)

    def test_with_alpha_keeps_every_other_config_field(self, synthetic_dataset):
        # Only alpha changes: algorithm, proximity, early termination and
        # batch size all carry over.
        config = EngineConfig(
            algorithm="nra", scoring=ScoringConfig(alpha=0.5),
            proximity=ProximityConfig(measure="katz", max_hops=2, cache_size=0),
            early_termination=False, batch_size=3)
        engine = SocialSearchEngine(synthetic_dataset, config)
        other = engine.with_alpha(0.3)
        assert other.config == replace(config, scoring=ScoringConfig(alpha=0.3))
        assert other.planner.proximity_path() == "online"

    def test_with_algorithm(self, engine, workload):
        other = engine.with_algorithm("nra")
        assert other.run(workload[0]).algorithm == "nra"

    def test_alpha_extremes_change_ranking(self, engine, synthetic_dataset, workload):
        query = workload[0]
        textual = engine.with_alpha(1.0).run(query, algorithm="exact")
        social = engine.with_alpha(0.0).run(query, algorithm="exact")
        # The two extreme rankings should not (in general) be identical on a
        # homophilous corpus; at minimum the score values must differ.
        assert textual.scores != social.scores or textual.item_ids != social.item_ids


class TestExplain:
    def test_explain_mentions_query_and_items(self, engine, workload):
        result = engine.run(workload[0])
        text = engine.explain(result)
        assert "query:" in text
        assert "results:" in text
        assert str(workload[0].seeker) in text

    def test_explain_lists_every_item(self, engine, workload):
        result = engine.run(workload[0])
        text = engine.explain(result)
        for item in result.items:
            assert f"id={item.item_id}" in text

    def test_scoring_property(self, engine):
        assert engine.scoring.alpha == engine.config.scoring.alpha
