"""Tests for candidate bookkeeping and bound arithmetic."""

import pytest

from repro.config import ProximityConfig, ScoringConfig
from repro.core.scoring import ScoringModel
from repro.core.topk.candidates import Candidate, CandidatePool
from repro.proximity import ShortestPathProximity


@pytest.fixture()
def scoring(hand_dataset):
    proximity = ShortestPathProximity(hand_dataset.graph, ProximityConfig())
    return ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=0.5))


class TestCandidate:
    def test_lower_bound_grows_with_knowledge(self, scoring):
        candidate = Candidate(item_id=100)
        tags = ("jazz",)
        empty = candidate.lower_bound(scoring.alpha, scoring.normalisers(tags))
        candidate.record_frequency("jazz", 2)
        after_frequency = candidate.lower_bound(scoring.alpha, scoring.normalisers(tags))
        candidate.add_social("jazz", 0.5)
        after_social = candidate.lower_bound(scoring.alpha, scoring.normalisers(tags))
        assert empty == 0.0
        assert after_frequency > empty
        assert after_social > after_frequency

    def test_upper_bound_never_below_lower_bound(self, scoring):
        candidate = Candidate(item_id=100)
        candidate.record_frequency("jazz", 2)
        candidate.add_social("jazz", 0.3)
        tags = ("jazz",)
        for frontier in (1.0, 0.5, 0.1, 0.0):
            upper = candidate.upper_bound(scoring.alpha, scoring.normalisers(tags), {"jazz": 2}, frontier)
            lower = candidate.lower_bound(scoring.alpha, scoring.normalisers(tags))
            assert upper >= lower - 1e-12

    def test_upper_bound_shrinks_as_frontier_decays(self, scoring):
        candidate = Candidate(item_id=100)
        candidate.record_frequency("jazz", 2)
        tags = ("jazz",)
        bounds = [candidate.upper_bound(scoring.alpha, scoring.normalisers(tags), {"jazz": 1}, frontier)
                  for frontier in (1.0, 0.6, 0.2, 0.0)]
        assert bounds == sorted(bounds, reverse=True)

    def test_upper_bound_equals_lower_when_everything_seen(self, scoring):
        candidate = Candidate(item_id=100)
        candidate.record_frequency("jazz", 2)
        candidate.add_social("jazz", 0.4)
        candidate.add_social("jazz", 0.2)
        tags = ("jazz",)
        # Both endorsers seen and the frontier is exhausted.
        upper = candidate.upper_bound(scoring.alpha, scoring.normalisers(tags), {"jazz": 0}, 0.0)
        lower = candidate.lower_bound(scoring.alpha, scoring.normalisers(tags))
        assert upper == pytest.approx(lower)

    def test_unknown_frequency_uses_next_tf(self, scoring):
        candidate = Candidate(item_id=100)
        tags = ("jazz",)
        small = candidate.upper_bound(scoring.alpha, scoring.normalisers(tags), {"jazz": 1}, 0.0)
        large = candidate.upper_bound(scoring.alpha, scoring.normalisers(tags), {"jazz": 2}, 0.0)
        assert large > small

    def test_knows_frequency(self, scoring):
        candidate = Candidate(item_id=1)
        assert not candidate.knows_frequency("jazz")
        candidate.record_frequency("jazz", 0)
        assert candidate.knows_frequency("jazz")


class TestCandidatePool:
    def test_ensure_creates_once(self):
        pool = CandidatePool()
        first, created_first = pool.ensure(10)
        second, created_second = pool.ensure(10)
        assert created_first is True
        assert created_second is False
        assert first is second
        assert len(pool) == 1
        assert 10 in pool

    def test_get_missing_returns_none(self):
        assert CandidatePool().get(5) is None

    def test_max_upper_bound_excluding(self, scoring):
        pool = CandidatePool()
        strong, _ = pool.ensure(100)
        strong.record_frequency("jazz", 2)
        weak, _ = pool.ensure(101)
        weak.record_frequency("jazz", 1)
        tags = ("jazz",)
        bound_all = pool.max_upper_bound_excluding(
            scoring.alpha, scoring.normalisers(tags), {"jazz": 0}, 0.0, frozenset())
        bound_without_strong = pool.max_upper_bound_excluding(
            scoring.alpha, scoring.normalisers(tags), {"jazz": 0}, 0.0,
            frozenset({100}))
        assert bound_all > bound_without_strong

    def test_iteration(self):
        pool = CandidatePool()
        pool.ensure(1)
        pool.ensure(2)
        assert {candidate.item_id for candidate in pool} == {1, 2}
        assert set(pool.item_ids()) == {1, 2}
