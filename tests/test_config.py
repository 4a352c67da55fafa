"""Tests for configuration validation."""

import pytest

from repro.config import (
    DatasetConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    ServiceConfig,
    WorkloadConfig,
    default_engine_config,
)
from repro.errors import ConfigurationError


class TestScoringConfig:
    def test_defaults_valid(self):
        config = ScoringConfig()
        assert config.alpha == 0.5
        assert config.to_dict() == {"alpha": 0.5}

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            ScoringConfig(alpha=alpha)

    @pytest.mark.parametrize("field,value", [
        ("vectorized", False),
        ("include_seeker", True),
        ("proximity_floor", 0.5),
    ])
    def test_removed_scoring_fields_are_not_accepted(self, field, value):
        with pytest.raises(TypeError):
            ScoringConfig(**{field: value})

    def test_to_dict(self):
        assert ScoringConfig(alpha=0.7).to_dict()["alpha"] == 0.7


class TestProximityConfig:
    def test_defaults_valid(self):
        assert ProximityConfig().measure == "shortest-path"

    @pytest.mark.parametrize("field,value", [
        ("measure", ""),
        ("decay", 0.0),
        ("decay", 1.5),
        ("damping", 1.0),
        ("max_hops", 0),
        ("katz_beta", 0.0),
        ("ppr_iterations", 0),
        ("ppr_tolerance", 0.0),
        ("cache_size", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ProximityConfig(**{field: value})

    @pytest.mark.parametrize("field", ["materialize", "cluster_rounds"])
    def test_removed_shard_fields_are_not_accepted(self, field):
        with pytest.raises(TypeError):
            ProximityConfig(**{field: 1})
        assert field not in ProximityConfig().to_dict()


class TestServiceConfig:
    def test_removed_invalidation_horizon_is_not_accepted(self):
        # Friendship invalidation always reaches the measure's max_hops.
        with pytest.raises(TypeError):
            ServiceConfig(invalidation_horizon=1)
        assert "invalidation_horizon" not in ServiceConfig().to_dict()


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.algorithm == "social-first"
        assert config.early_termination is True

    def test_batch_size_validated(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(batch_size=0)

    def test_to_dict_nested(self):
        data = EngineConfig().to_dict()
        assert data["scoring"]["alpha"] == 0.5
        assert data["proximity"]["measure"] == "shortest-path"
        assert set(data) == {"algorithm", "scoring", "proximity",
                             "early_termination", "batch_size"}

    def test_default_engine_config_helper(self):
        config = default_engine_config(alpha=0.2, algorithm="nra", measure="ppr")
        assert config.scoring.alpha == 0.2
        assert config.algorithm == "nra"
        assert config.proximity.measure == "ppr"


class TestDatasetConfig:
    @pytest.mark.parametrize("field,value", [
        ("num_users", 1),
        ("num_items", 0),
        ("num_tags", 0),
        ("num_actions", 0),
        ("avg_degree", 0.0),
        ("homophily", 1.5),
        ("tag_locality", 1.5),
        ("tags_per_item", 0.5),
        ("name", ""),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            DatasetConfig(**{field: value})

    def test_to_dict(self):
        assert DatasetConfig(num_users=10).to_dict()["num_users"] == 10


class TestWorkloadConfig:
    def test_invalid_strategies_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(seeker_strategy="vip")
        with pytest.raises(ConfigurationError):
            WorkloadConfig(tag_strategy="trendy")

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_queries=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(k=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(tags_per_query=0.0)
