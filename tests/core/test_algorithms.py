"""Behavioural tests of the top-k algorithms.

The key property: every non-exhaustive algorithm must return a valid top-k
answer — each returned item's exact score is at least the k-th best exact
score (ties allowed) — and the exact scores it reports must match the exact
baseline's scores for the same items.
"""

import pytest

from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core import Query, SocialSearchEngine, available_algorithms, create_algorithm
from repro.errors import UnknownAlgorithmError, UnknownUserError
from repro.proximity import ShortestPathProximity
from repro.workload import generate_workload
from repro.config import WorkloadConfig

#: The algorithms that must agree with the exact baseline.
EXACT_EQUIVALENT = ["ta", "nra", "social-first", "hybrid", "materialized"]


def _scores_by_item(result):
    return {item.item_id: item.score for item in result.items}


class TestRegistry:
    def test_expected_algorithms_registered(self):
        registered = available_algorithms()
        for name in ["exact", "ta", "nra", "social-first", "hybrid",
                     "global", "random", "materialized"]:
            assert name in registered

    def test_unknown_algorithm_rejected(self, synthetic_dataset):
        proximity = ShortestPathProximity(synthetic_dataset.graph, ProximityConfig())
        with pytest.raises(UnknownAlgorithmError):
            create_algorithm("does-not-exist", synthetic_dataset, proximity)


@pytest.mark.parametrize("algorithm", EXACT_EQUIVALENT)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
class TestAgreementWithExact:
    def test_returned_items_are_a_valid_topk(self, engine_factory, workload,
                                             algorithm, alpha):
        engine = engine_factory(alpha=alpha)
        for query in workload:
            exact = engine.run(query, algorithm="exact")
            result = engine.run(query, algorithm=algorithm)
            assert len(result.items) == len(exact.items)
            if not exact.items:
                continue
            kth_exact = exact.items[-1].score
            exact_scores = _scores_by_item(exact)
            for item in result.items:
                # Every returned item is at least as good as the k-th exact
                # item (the returned set is a valid top-k modulo ties).
                assert item.score >= kth_exact - 1e-9
                if item.item_id in exact_scores:
                    assert item.score == pytest.approx(exact_scores[item.item_id],
                                                       abs=1e-9)

    def test_score_multiset_matches_exact(self, engine_factory, workload,
                                          algorithm, alpha):
        engine = engine_factory(alpha=alpha)
        for query in workload:
            exact = sorted(engine.run(query, algorithm="exact").scores, reverse=True)
            got = sorted(engine.run(query, algorithm=algorithm).scores, reverse=True)
            assert got == pytest.approx(exact, abs=1e-9)


class TestResultShape:
    @pytest.mark.parametrize("algorithm", ["exact", "ta", "nra", "social-first",
                                           "hybrid", "global", "random"])
    def test_results_sorted_and_within_k(self, engine, workload, algorithm):
        for query in workload:
            result = engine.run(query, algorithm=algorithm)
            assert len(result.items) <= query.k
            scores = result.scores
            assert scores == sorted(scores, reverse=True)
            assert len(set(result.item_ids)) == len(result.item_ids)

    def test_unknown_seeker_rejected(self, engine, synthetic_dataset):
        query = Query(seeker=synthetic_dataset.num_users + 5, tags=("tag-000",), k=3)
        with pytest.raises(UnknownUserError):
            engine.run(query, algorithm="exact")

    def test_unknown_tag_returns_empty_or_partial(self, engine, synthetic_dataset):
        query = Query(seeker=0, tags=("tag-that-does-not-exist",), k=3)
        for algorithm in ["exact", "ta", "nra", "social-first", "global"]:
            result = engine.run(query, algorithm=algorithm)
            assert result.items == [] or all(item.score == 0.0 for item in result.items)

    def test_k_larger_than_candidate_set(self, engine, synthetic_dataset):
        tag = synthetic_dataset.tags()[0]
        matching = len(synthetic_dataset.endorser_index.for_tag(tag))
        query = Query(seeker=1, tags=(tag,), k=matching + 50)
        exact = engine.run(query, algorithm="exact")
        social = engine.run(query, algorithm="social-first")
        assert len(exact.items) == matching
        assert len(social.items) == matching

    def test_latency_and_accounting_populated(self, engine, workload):
        result = engine.run(workload[0], algorithm="social-first")
        assert result.latency_seconds >= 0.0
        assert result.accounting.total_accesses > 0
        assert result.accounting.rounds > 0


class TestEarlyTermination:
    def test_social_first_terminates_early_somewhere(self, engine_factory, workload):
        engine = engine_factory(alpha=0.3)
        assert any(engine.run(query, algorithm="social-first").terminated_early
                   for query in workload)

    def test_disabling_early_termination_reads_more(self, engine_factory, workload):
        eager = engine_factory(alpha=0.5, early_termination=True)
        lazy = engine_factory(alpha=0.5, early_termination=False)
        eager_total = sum(eager.run(q, algorithm="social-first").accounting.total_accesses
                          for q in workload)
        lazy_total = sum(lazy.run(q, algorithm="social-first").accounting.total_accesses
                         for q in workload)
        assert lazy_total >= eager_total

    def test_exact_never_terminates_early(self, engine, workload):
        for query in workload:
            assert engine.run(query, algorithm="exact").terminated_early is False

    def test_results_identical_with_and_without_early_termination(self, engine_factory,
                                                                  workload):
        eager = engine_factory(alpha=0.5, early_termination=True)
        lazy = engine_factory(alpha=0.5, early_termination=False)
        for query in workload:
            a = eager.run(query, algorithm="social-first")
            b = lazy.run(query, algorithm="social-first")
            assert a.scores == pytest.approx(b.scores, abs=1e-9)


class TestAccessProfiles:
    def test_nra_never_random_accesses_during_processing(self, engine_factory, workload):
        # NRA's only random accesses are the final exact re-scoring of the k
        # returned items, which is bounded by k * |tags| * (taggers + 1);
        # TA random-accesses every discovered candidate, so it must pay more.
        engine = engine_factory(alpha=0.5)
        for query in workload:
            nra = engine.run(query, algorithm="nra").accounting.random_accesses
            ta = engine.run(query, algorithm="ta").accounting.random_accesses
            assert nra <= ta

    def test_social_first_visits_fewer_users_than_exact(self, engine_factory, workload):
        engine = engine_factory(alpha=0.5)
        social_total = 0
        exact_total = 0
        for query in workload:
            social_total += engine.run(query, algorithm="social-first").accounting.users_visited
            exact_total += engine.run(query, algorithm="exact").accounting.users_visited
        assert social_total <= exact_total

    def test_alpha_one_social_first_skips_frontier(self, engine_factory, workload):
        engine = engine_factory(alpha=1.0)
        for query in workload:
            result = engine.run(query, algorithm="social-first")
            # With a purely textual score the adaptive scheduler should never
            # prefer the social frontier.
            assert result.accounting.users_visited == 0


class TestBaselines:
    def test_global_ranking_ignores_seeker(self, engine, synthetic_dataset, workload):
        query = workload[0]
        other_seeker = (query.seeker + 1) % synthetic_dataset.num_users
        a = engine.run(query, algorithm="global")
        b = engine.run(Query(seeker=other_seeker, tags=query.tags, k=query.k),
                       algorithm="global")
        assert a.item_ids == b.item_ids

    def test_random_is_deterministic_per_seeker(self, engine, workload):
        query = workload[0]
        assert engine.run(query, algorithm="random").item_ids == \
            engine.run(query, algorithm="random").item_ids

    def test_materialized_reports_memory(self, synthetic_dataset):
        from repro.baselines import MaterializedBaseline
        proximity = ShortestPathProximity(synthetic_dataset.graph, ProximityConfig())
        baseline = MaterializedBaseline(synthetic_dataset, proximity, EngineConfig())
        entries = baseline.materialise(users=range(10))
        assert entries == baseline.num_entries()
        assert baseline.memory_bytes() > 0
