"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ProximityConfig, ScoringConfig
from repro.core import Query, SocialSearchEngine
from repro.config import EngineConfig
from repro.core.topk.heap import TopKHeap
from repro.eval import binary_ndcg_at_k, kendall_tau, overlap_at_k, precision_at_k
from repro.graph import SocialGraph
from repro.proximity import ShortestPathProximity
from repro.storage import Dataset, TaggingAction

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

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

ranking_strategy = st.lists(st.integers(min_value=0, max_value=30), max_size=15,
                            unique=True)


def _graph_from(edges) -> SocialGraph:
    cleaned = [(u, v, w) for u, v, w in edges if u != v]
    return SocialGraph.from_edges(NUM_USERS, cleaned)


def _dataset_from(edges, actions) -> Dataset:
    graph = _graph_from(edges)
    records = [TaggingAction(user_id=u, item_id=i, tag=t, timestamp=index)
               for index, (u, i, t) in enumerate(actions)]
    return Dataset.build(graph, records, name="property")


# ---------------------------------------------------------------------------
# Heap properties
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=100),
                          st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
                max_size=50),
       st.integers(min_value=1, max_value=10))
def test_heap_keeps_the_k_largest_scores(offers, k):
    heap = TopKHeap(k)
    best = {}
    for item_id, score in offers:
        heap.offer(item_id, score)
        best[item_id] = max(best.get(item_id, 0.0), score)
    expected = sorted(best.values(), reverse=True)[:k]
    got = sorted((score for _, score in heap.items()), reverse=True)
    assert len(got) == min(k, len(best))
    for expected_score, got_score in zip(expected, got):
        assert math.isclose(expected_score, got_score, abs_tol=1e-12)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=100),
                          st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
                max_size=50),
       st.integers(min_value=1, max_value=10))
def test_heap_output_is_sorted_and_unique(offers, k):
    heap = TopKHeap(k)
    for item_id, score in offers:
        heap.offer(item_id, score)
    items = heap.items()
    scores = [score for _, score in items]
    ids = [item_id for item_id, _ in items]
    assert scores == sorted(scores, reverse=True)
    assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# Graph / proximity properties
# ---------------------------------------------------------------------------

@given(edge_strategy)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_graph_roundtrips_through_edge_list(edges):
    graph = _graph_from(edges)
    rebuilt = SocialGraph.from_edges(graph.num_users, graph.to_edge_list())
    assert rebuilt == graph


@given(edge_strategy, st.integers(min_value=0, max_value=NUM_USERS - 1))
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_proximity_stream_is_sorted_and_bounded(edges, seeker):
    graph = _graph_from(edges)
    proximity = ShortestPathProximity(graph, ProximityConfig())
    values = [value for _, value in proximity.iter_ranked(seeker)]
    assert values == sorted(values, reverse=True)
    assert all(0.0 < value <= 1.0 for value in values)


@given(edge_strategy, st.integers(min_value=0, max_value=NUM_USERS - 1))
@example(edges=[(0, 4, 1.0), (1, 2, 1.0), (1, 4, 1.0), (2, 3, 0.25), (2, 5, 1.0),
                (3, 5, 1.0)], seeker=0)
@example(edges=[(0, 1, 0.125), (0, 2, 1.0), (0, 4, 1.0), (1, 5, 1.0), (2, 3, 1.0),
                (4, 5, 1.0)], seeker=3)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_proximity_symmetry_on_undirected_graph(edges, seeker):
    # The examples are graphs where the default cap binds: a row that kept
    # one best label per node reached the target one way but not back
    # (0 -> 3 but not 3 -> 0; 3 -> 1 but not 1 -> 3, which settled 0 over
    # 1-5-4-0 at three hops).  Capped rows are the best over paths of at
    # most ``max_hops`` hops, which is symmetric.
    graph = _graph_from(edges)
    proximity = ShortestPathProximity(graph, ProximityConfig())
    vector = proximity.vector(seeker)
    for target, value in vector.items():
        assert math.isclose(proximity.proximity(target, seeker), value,
                            rel_tol=1e-9, abs_tol=1e-12)


@given(edge_strategy, st.integers(min_value=0, max_value=NUM_USERS - 1))
@example(edges=[(0, 4, 1.0), (1, 2, 1.0), (1, 4, 1.0), (2, 3, 0.25), (2, 5, 1.0),
                (3, 5, 1.0)], seeker=0)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_proximity_symmetry_when_the_hop_cap_cannot_bind(edges, seeker):
    # Shortest paths are simple, so NUM_USERS - 1 hops never bind and the
    # rows are exact best-path products.  The example is a graph where the
    # default cap does bind (0 reaches 3 only over 0-4-1-2-3 or longer).
    graph = _graph_from(edges)
    proximity = ShortestPathProximity(graph, ProximityConfig(max_hops=NUM_USERS - 1))
    vector = proximity.vector(seeker)
    for target, value in vector.items():
        assert math.isclose(proximity.proximity(target, seeker), value,
                            rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Algorithm agreement property
# ---------------------------------------------------------------------------

@given(edge_strategy, action_strategy,
       st.integers(min_value=0, max_value=NUM_USERS - 1),
       st.sampled_from([("a",), ("b",), ("a", "b"), ("a", "b", "c")]),
       st.integers(min_value=1, max_value=5),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_algorithm_matches_exact_scores(edges, actions, seeker, tags, k, alpha):
    dataset = _dataset_from(edges, actions)
    config = EngineConfig(scoring=ScoringConfig(alpha=alpha))
    engine = SocialSearchEngine(dataset, config)
    query = Query(seeker=seeker, tags=tags, k=k)
    exact = engine.run(query, algorithm="exact")
    exact_scores = sorted(exact.scores, reverse=True)
    for algorithm in ("ta", "nra", "social-first", "hybrid"):
        result = engine.run(query, algorithm=algorithm)
        got = sorted(result.scores, reverse=True)
        assert len(got) == len(exact_scores)
        for expected, actual in zip(exact_scores, got):
            assert math.isclose(expected, actual, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Metric properties
# ---------------------------------------------------------------------------

@given(ranking_strategy, st.sets(st.integers(min_value=0, max_value=30), max_size=10),
       st.integers(min_value=1, max_value=15))
def test_precision_and_ndcg_bounded(ranking, relevant, k):
    assert 0.0 <= precision_at_k(ranking, relevant, k) <= 1.0
    assert 0.0 <= binary_ndcg_at_k(ranking, relevant, k) <= 1.0


@given(ranking_strategy, ranking_strategy)
def test_kendall_tau_symmetric_and_bounded(ranking_a, ranking_b):
    tau_ab = kendall_tau(ranking_a, ranking_b)
    tau_ba = kendall_tau(ranking_b, ranking_a)
    assert -1.0 <= tau_ab <= 1.0
    assert math.isclose(tau_ab, tau_ba, abs_tol=1e-12)


@given(ranking_strategy)
def test_ranking_agrees_perfectly_with_itself(ranking):
    assert kendall_tau(ranking, ranking) == 1.0
    if ranking:
        assert overlap_at_k(ranking, ranking, len(ranking)) == 1.0
