"""Tests for the blended scoring model."""

import pytest

from repro.config import ProximityConfig, ScoringConfig
from repro.core.accounting import AccessAccountant
from repro.core.scoring import ScoringModel
from repro.proximity import ShortestPathProximity


@pytest.fixture()
def proximity(hand_dataset):
    return ShortestPathProximity(hand_dataset.graph, ProximityConfig(decay=0.5))


@pytest.fixture()
def model(hand_dataset, proximity):
    return ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=0.5))


class TestNormalisation:
    def test_normaliser_is_max_frequency(self, model, hand_dataset):
        assert model.normaliser("jazz") == hand_dataset.inverted_index.max_frequency("jazz")

    def test_normaliser_floor_is_one(self, model):
        assert model.normaliser("unknown-tag") == 1.0

    def test_normalised_tf_in_unit_interval(self, model, hand_dataset):
        for tag in hand_dataset.tags():
            for posting in hand_dataset.inverted_index.postings(tag):
                value = model.normalised_tf(posting.item_id, tag)
                assert 0.0 <= value <= 1.0

    def test_top_item_has_normalised_tf_one(self, model):
        assert model.normalised_tf(100, "jazz") == pytest.approx(1.0)


class TestExactScore:
    def test_pure_textual_when_alpha_one(self, hand_dataset, proximity):
        model = ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=1.0))
        vector = proximity.vector(0)
        breakdown = model.exact_score(0, 100, ("jazz",), vector)
        assert breakdown.score == pytest.approx(breakdown.textual)
        assert breakdown.score == pytest.approx(1.0)

    def test_pure_social_when_alpha_zero(self, hand_dataset, proximity):
        model = ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=0.0))
        vector = proximity.vector(0)
        breakdown = model.exact_score(0, 100, ("jazz",), vector)
        assert breakdown.score == pytest.approx(breakdown.social)
        # taggers of (100, jazz) are users 1 and 2.
        expected = (vector.get(1, 0.0) + vector.get(2, 0.0)) / 2.0
        assert breakdown.social == pytest.approx(expected)

    def test_blend_is_convex_combination(self, hand_dataset, proximity):
        vector = proximity.vector(0)
        half = ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=0.5))
        breakdown = half.exact_score(0, 100, ("jazz",), vector)
        assert breakdown.score == pytest.approx(
            0.5 * breakdown.textual + 0.5 * breakdown.social
        )

    def test_score_in_unit_interval(self, model, hand_dataset, proximity):
        vector = proximity.vector(0)
        for item_id in hand_dataset.items.ids():
            breakdown = model.exact_score(0, item_id, ("jazz", "rock"), vector)
            assert 0.0 <= breakdown.score <= 1.0

    def test_empty_tags_scores_zero(self, model, proximity):
        assert model.exact_score(0, 100, (), proximity.vector(0)).score == 0.0

    def test_unrelated_item_scores_zero(self, model, proximity):
        breakdown = model.exact_score(0, 104, ("vinyl",), proximity.vector(0))
        # item 104 was only tagged jazz/rock by the isolated user 5.
        assert breakdown.score == pytest.approx(0.0)

    def test_seeker_own_action_is_excluded(self, hand_dataset, proximity):
        # Item 103 was tagged "jazz" by the seeker (user 0) and by nobody else,
        # so the social part is zero and the only access charged is the
        # frequency lookup: the seeker's own endorsement is never read.
        model = ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=0.0))
        vector = proximity.vector(0)
        accountant = AccessAccountant()
        breakdown = model.exact_score(0, 103, ("jazz",), vector,
                                      accountant=accountant)
        assert breakdown.score == pytest.approx(0.0)
        assert accountant.random_accesses == 1

    def test_multi_tag_score_is_average(self, hand_dataset, proximity):
        model = ScoringModel(hand_dataset, proximity, ScoringConfig(alpha=1.0))
        vector = proximity.vector(0)
        jazz = model.exact_score(0, 100, ("jazz",), vector).score
        vinyl = model.exact_score(0, 100, ("vinyl",), vector).score
        both = model.exact_score(0, 100, ("jazz", "vinyl"), vector).score
        assert both == pytest.approx((jazz + vinyl) / 2.0)

    def test_accountant_charged_for_random_accesses(self, model, proximity):
        accountant = AccessAccountant()
        model.exact_score(0, 100, ("jazz",), proximity.vector(0), accountant=accountant)
        assert accountant.random_accesses > 0


class TestBounds:
    def test_unseen_upper_bound_monotone_in_frontier(self, model):
        low = model.unseen_upper_bound({"jazz": 1}, 0.1, model.normalisers(("jazz",)))
        high = model.unseen_upper_bound({"jazz": 1}, 0.9, model.normalisers(("jazz",)))
        assert high >= low

    def test_unseen_upper_bound_zero_when_everything_exhausted(self, model):
        assert model.unseen_upper_bound(
            {"jazz": 0}, 0.0, model.normalisers(("jazz",))) == 0.0

    def test_unseen_upper_bound_bounds_every_item(self, hand_dataset, proximity, model):
        # With full frontier (proximity 1) and the list head as next_tf, no
        # item can exceed the bound.
        vector = proximity.vector(0)
        next_tf = {tag: hand_dataset.inverted_index.max_frequency(tag)
                   for tag in hand_dataset.tags()}
        bound = model.unseen_upper_bound(next_tf, 1.0,
                                         model.normalisers(("jazz", "vinyl")))
        for item_id in hand_dataset.items.ids():
            score = model.exact_score(0, item_id, ("jazz", "vinyl"), vector).score
            assert score <= bound + 1e-9

    def test_combine(self, model):
        assert model.combine(1.0, 0.0) == pytest.approx(0.5)
        assert model.combine(0.0, 1.0) == pytest.approx(0.5)
        assert model.alpha == 0.5
