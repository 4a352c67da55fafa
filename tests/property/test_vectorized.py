"""Property-based equivalence tests: vectorized kernels vs the scalar oracle.

The vectorized scoring layer (endorser-index reductions, ``score_block``,
the ``argpartition`` exact top-k) must be a pure performance change over
the scalar loop it replaced (``tests/scoring_oracle.py``): same scores to
float precision, identical rankings, identical access accounting.  These
tests drive both over random datasets, seekers, tag sets and alpha values
and require exact agreement.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core import Query, SocialSearchEngine
from repro.core.scoring import ScoringModel
from repro.core.topk.exact import select_topk
from repro.graph import SocialGraph
from repro.proximity import ShortestPathProximity, available_proximities
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from scoring_oracle import scalar_exact

NUM_USERS = 8

edge_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_USERS - 1),
        st.integers(min_value=0, max_value=NUM_USERS - 1),
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    ),
    max_size=20,
)

action_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_USERS - 1),   # user
        st.integers(min_value=0, max_value=11),               # item
        st.sampled_from(["a", "b", "c"]),                     # tag
    ),
    min_size=1,
    max_size=40,
)

tag_sets = st.sampled_from([("a",), ("b",), ("a", "b"), ("a", "b", "c"),
                            ("c", "a"), ("nope",), ("a", "nope")])
alphas = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def _dataset_from(edges, actions) -> Dataset:
    cleaned = [(u, v, w) for u, v, w in edges if u != v]
    graph = SocialGraph.from_edges(NUM_USERS, cleaned)
    records = [TaggingAction(user_id=u, item_id=i, tag=t, timestamp=index)
               for index, (u, i, t) in enumerate(actions)]
    return Dataset.build(graph, records, name="property")


# ---------------------------------------------------------------------------
# score_block vs exact_score
# ---------------------------------------------------------------------------

@given(edge_strategy, action_strategy,
       st.integers(min_value=0, max_value=NUM_USERS - 1), tag_sets, alphas)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_score_block_matches_scalar_exact_score(edges, actions, seeker, tags, alpha):
    dataset = _dataset_from(edges, actions)
    proximity = ShortestPathProximity(dataset.graph, ProximityConfig())
    scoring = ScoringModel(dataset, proximity, ScoringConfig(alpha=alpha))

    vector = scoring.proximity_vector(seeker)
    dense = scoring.proximity_vector_array(seeker)
    candidates = scoring.candidate_block(tags)
    block = scoring.score_block(seeker, candidates, tags, proximity=dense)

    assert len(block) == candidates.shape[0]
    for position, item_id in enumerate(candidates.tolist()):
        breakdown = scoring.exact_score(seeker, int(item_id), tags, vector)
        assert math.isclose(block.scores[position], breakdown.score, abs_tol=1e-12)
        assert math.isclose(block.textual[position], breakdown.textual, abs_tol=1e-12)
        assert math.isclose(block.social[position], breakdown.social, abs_tol=1e-12)


@given(edge_strategy, st.integers(min_value=0, max_value=NUM_USERS - 1))
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_vector_array_is_dense_form_of_vector(edges, seeker):
    cleaned = [(u, v, w) for u, v, w in edges if u != v]
    graph = SocialGraph.from_edges(NUM_USERS, cleaned)
    proximity = ShortestPathProximity(graph, ProximityConfig())
    vector = proximity.vector(seeker)
    dense = proximity.vector_array(seeker)
    assert dense.shape == (NUM_USERS,)
    assert dense[seeker] == 0.0
    for user in range(NUM_USERS):
        assert math.isclose(dense[user], vector.get(user, 0.0), abs_tol=0.0)


# ---------------------------------------------------------------------------
# Vectorized exact search vs the scalar oracle
# ---------------------------------------------------------------------------

@given(edge_strategy, action_strategy,
       st.integers(min_value=0, max_value=NUM_USERS - 1), tag_sets,
       st.integers(min_value=1, max_value=6), alphas)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_vectorized_exact_identical_to_scalar(edges, actions, seeker, tags, k, alpha):
    dataset = _dataset_from(edges, actions)
    engine = SocialSearchEngine(
        dataset, EngineConfig(scoring=ScoringConfig(alpha=alpha)))
    query = Query(seeker=seeker, tags=tags, k=k)

    fast = engine.run(query, algorithm="exact")
    reference = scalar_exact(engine, query)

    assert fast.item_ids == reference.item_ids
    for fast_item, reference_item in zip(fast.items, reference.items):
        assert math.isclose(fast_item.score, reference_item.score, abs_tol=1e-12)
        assert math.isclose(fast_item.textual, reference_item.textual, abs_tol=1e-12)
        assert math.isclose(fast_item.social, reference_item.social, abs_tol=1e-12)
    assert fast.accounting.to_dict() == reference.accounting.to_dict()
    assert fast.terminated_early == reference.terminated_early


def _assert_matches_oracle(engine, query):
    fast = engine.run(query, algorithm="exact")
    reference = scalar_exact(engine, query)
    assert fast.item_ids == reference.item_ids
    for fast_item, reference_item in zip(fast.items, reference.items):
        assert math.isclose(fast_item.score, reference_item.score, abs_tol=1e-12)
        assert math.isclose(fast_item.social, reference_item.social, abs_tol=1e-12)
    assert fast.accounting.to_dict() == reference.accounting.to_dict()


@pytest.mark.parametrize("measure", available_proximities())
def test_exact_matches_the_scalar_oracle_for_every_measure(
        synthetic_dataset, workload, measure):
    engine = SocialSearchEngine(synthetic_dataset, EngineConfig(
        scoring=ScoringConfig(alpha=0.3),
        proximity=ProximityConfig(measure=measure)))
    for query in workload:
        _assert_matches_oracle(engine, query)


def test_exact_matches_the_scalar_oracle_over_pending_deltas(
        synthetic_dataset, workload, tmp_path):
    # Delta overlays on an arena, including the seekers' own endorsements
    # of the queried tags: those are read from the merged bundles and must
    # be left out of the charges exactly as the scalar loop skips them.
    path = synthetic_dataset.to_arena(tmp_path / "live.arena")
    dataset = Dataset.from_arena(path)
    updater = DatasetUpdater(dataset)
    new_item = max(dataset.items.ids()) + 1
    actions = []
    for position, query in enumerate(workload):
        for tag in query.tags:
            for user in (query.seeker, (query.seeker + 1) % dataset.num_users):
                actions.append(TaggingAction(user_id=user, item_id=new_item + position,
                                             tag=tag, timestamp=10_000 + len(actions)))
    updater.add_actions(actions)
    assert dataset.tagging.delta_size > 0
    engine = SocialSearchEngine(dataset, EngineConfig(
        scoring=ScoringConfig(alpha=0.3)))
    for query in workload:
        _assert_matches_oracle(engine, query)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False)),
                min_size=0, max_size=40, unique_by=lambda pair: pair[0]),
       st.integers(min_value=1, max_value=8))
def test_select_topk_matches_sorted_selection(entries, k):
    item_ids = np.array([item for item, _ in entries], dtype=np.int64)
    scores = np.array([score for _, score in entries], dtype=np.float64)
    order = np.argsort(item_ids)
    item_ids, scores = item_ids[order], scores[order]

    chosen = select_topk(item_ids, scores, k)
    got = [(int(item_ids[i]), float(scores[i])) for i in chosen]
    expected = sorted(((int(i), float(s)) for i, s in zip(item_ids, scores)),
                      key=lambda pair: (-pair[1], pair[0]))[:k]
    assert got == expected


# ---------------------------------------------------------------------------
# Endorser-index reductions
# ---------------------------------------------------------------------------

@given(edge_strategy, action_strategy,
       st.integers(min_value=0, max_value=NUM_USERS - 1),
       st.sampled_from(["a", "b", "c"]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_endorser_index_mass_matches_python_sum(edges, actions, seeker, tag):
    dataset = _dataset_from(edges, actions)
    proximity = ShortestPathProximity(dataset.graph, ProximityConfig())
    dense = proximity.vector_array(seeker)
    bundle = dataset.endorser_index.for_tag(tag)
    if bundle is None:
        assert all(action[2] != tag for action in actions)
        return
    masses = bundle.social_mass(dense)
    for position, item_id in enumerate(bundle.item_ids.tolist()):
        taggers = {user for user, item, action_tag in actions
                   if item == item_id and action_tag == tag}
        expected = sum(dense[tagger] for tagger in sorted(taggers))
        assert math.isclose(masses[position], expected, abs_tol=1e-12)
        assert bundle.frequencies[position] == len(taggers)


# ---------------------------------------------------------------------------
# Incremental candidate bounds vs naive rescan
# ---------------------------------------------------------------------------

def _naive_max_bound(pool, alpha, normalisers, next_tf, frontier, excluded):
    best = 0.0
    for candidate in pool:
        if candidate.item_id in excluded:
            continue
        best = max(best, candidate.upper_bound(alpha, normalisers, next_tf, frontier))
    return best


def _checking_algorithm(base_cls):
    """Subclass an interleaving algorithm so every termination check also
    verifies the lazy bound heap against a naive full rescan — the strongest
    form of the property, because it exercises the exact call pattern
    (monotone next_tf / frontier decay, knowledge refinement) the
    incremental structure relies on."""
    from repro.core.topk.sources import next_frequencies

    class Checking(base_cls):
        mismatches = []

        def _should_stop(self, heap, pool, normalisers, textual_sources,
                         frontier):
            next_tf = next_frequencies(textual_sources)
            frontier_proximity = frontier.next_proximity()
            alpha = self._scoring.alpha
            for excluded in (frozenset(), frozenset(heap.item_ids())):
                fast = pool.max_upper_bound_excluding(
                    alpha, normalisers, next_tf, frontier_proximity, excluded)
                naive = _naive_max_bound(pool, alpha, normalisers,
                                         next_tf, frontier_proximity, excluded)
                if not math.isclose(fast, naive, abs_tol=1e-12):
                    self.mismatches.append((fast, naive))
            return super()._should_stop(heap, pool, normalisers,
                                        textual_sources, frontier)

    return Checking


@given(edge_strategy, action_strategy,
       st.integers(min_value=0, max_value=NUM_USERS - 1), tag_sets,
       st.integers(min_value=1, max_value=5), alphas)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_bound_matches_naive_rescan(edges, actions, seeker, tags,
                                                k, alpha):
    from repro.core.topk.nra import NoRandomAccess
    from repro.core.topk.social_first import SocialFirst

    dataset = _dataset_from(edges, actions)
    config = EngineConfig(scoring=ScoringConfig(alpha=alpha), batch_size=2)
    proximity = ShortestPathProximity(dataset.graph, ProximityConfig())
    query = Query(seeker=seeker, tags=tags, k=k)
    for base_cls in (NoRandomAccess, SocialFirst):
        algorithm = _checking_algorithm(base_cls)(dataset, proximity, config)
        algorithm.search(query)
        assert algorithm.mismatches == []
