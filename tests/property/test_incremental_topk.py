"""Equivalence gate: the incremental top-k heap against a whole-pool rebuild.

``InterleavedTopK.search`` re-offers only the candidates a round touched to
one heap kept for the whole search.  Every answer — ranking, scores, access
accounting and whether the search stopped early — must equal the one of the
rebuild-every-round loop kept in ``tests/interleave_oracle.py``, for every
interleaving algorithm, on an in-memory and an arena-backed corpus, and
from threads sharing one engine.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import interleave_oracle
from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, ScoringConfig
from repro.core import Query
from repro.core.topk.base import create_algorithm
from repro.eval.quality import result_signature
from repro.graph import SocialGraph
from repro.proximity import CachedProximity, ShortestPathProximity
from repro.storage import Dataset, TaggingAction

ALGORITHMS = ("social-first", "hybrid", "nra", "ta")
KS = (1, 5, 10, 20)
ALPHAS = (0.1, 0.5, 0.9)
BATCH_SIZES = (1, 16)


def identity(result):
    return result_signature(result), result.terminated_early


def popular_tags(dataset, count):
    tag_table, _activity, popularity = dataset.tagging.action_histograms(
        dataset.num_users)
    order = sorted(range(len(tag_table)), key=lambda i: (-popularity[i], i))
    return [tag_table[i] for i in order[:count]]


@pytest.fixture(scope="module", params=["memory", "arena"])
def corpus(request, synthetic_dataset, synthetic_arena):
    dataset = synthetic_dataset if request.param == "memory" \
        else Dataset.from_arena(synthetic_arena)
    proximity = CachedProximity(
        ShortestPathProximity(dataset.graph, ProximityConfig()), capacity=256)
    return dataset, proximity


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_fixed_grid_matches_the_rebuild_oracle(corpus, name, k):
    dataset, proximity = corpus
    tags = popular_tags(dataset, 4)
    case = 0
    for alpha in ALPHAS:
        for batch_size in BATCH_SIZES:
            for early_termination in (True, False):
                config = EngineConfig(scoring=ScoringConfig(alpha=alpha),
                                      batch_size=batch_size,
                                      early_termination=early_termination)
                algorithm = create_algorithm(name, dataset, proximity, config)
                for count in (1, 2, 3):
                    case += 1
                    query = Query(seeker=(7 * case + k) % dataset.num_users,
                                  tags=tuple(tags[case % 2:case % 2 + count]), k=k)
                    assert identity(algorithm.search(query)) == \
                        identity(interleave_oracle.search(algorithm, query)), \
                        (query, alpha, batch_size, early_termination)


NUM_USERS = 8

edges = st.lists(st.tuples(st.integers(min_value=0, max_value=NUM_USERS - 1),
                           st.integers(min_value=0, max_value=NUM_USERS - 1),
                           st.floats(min_value=0.05, max_value=1.0,
                                     allow_nan=False)),
                 max_size=20)
actions = st.lists(st.tuples(st.integers(min_value=0, max_value=NUM_USERS - 1),
                             st.integers(min_value=0, max_value=15),
                             st.sampled_from(["a", "b", "c"])),
                   min_size=1, max_size=60)
tag_sets = st.sampled_from([("a",), ("b",), ("a", "b"), ("c", "a"),
                            ("a", "b", "c"), ("a", "nope")])


@given(edges, actions, st.integers(min_value=0, max_value=NUM_USERS - 1),
       tag_sets, st.integers(min_value=1, max_value=20),
       st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       st.sampled_from([1, 2, 16]), st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_corpora_match_the_rebuild_oracle(edges, actions, seeker, tags, k,
                                                 alpha, batch_size,
                                                 early_termination):
    graph = SocialGraph.from_edges(NUM_USERS, [(u, v, w) for u, v, w in edges
                                               if u != v])
    dataset = Dataset.build(graph, [
        TaggingAction(user_id=u, item_id=i, tag=t, timestamp=index)
        for index, (u, i, t) in enumerate(actions)], name="property")
    proximity = ShortestPathProximity(dataset.graph, ProximityConfig())
    config = EngineConfig(scoring=ScoringConfig(alpha=alpha), batch_size=batch_size,
                          early_termination=early_termination)
    query = Query(seeker=seeker, tags=tags, k=k)
    for name in ALGORITHMS:
        algorithm = create_algorithm(name, dataset, proximity, config)
        assert identity(algorithm.search(query)) == \
            identity(interleave_oracle.search(algorithm, query)), name


def test_shared_engine_threads_match_sequential(synthetic_dataset):
    """Eight threads on one engine's shared algorithm instances, switching
    every microsecond, answer exactly what sequential runs answer."""
    engine = SocialSearchEngine(synthetic_dataset)
    tags = popular_tags(synthetic_dataset, 3)
    jobs = [(Query(seeker=seeker, tags=tuple(tags[:1 + seeker % 3]), k=5),
             ("hybrid", "nra", "social-first")[seeker % 3])
            for seeker in range(24)]
    expected = [identity(engine.run(query, algorithm=name)) for query, name in jobs]
    answers = [None] * len(jobs)
    start = threading.Barrier(8)

    def client(offset):
        start.wait(timeout=10.0)
        for index in range(offset, len(jobs), 8):
            query, name = jobs[index]
            answers[index] = identity(engine.run(query, algorithm=name))

    threads = [threading.Thread(target=client, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == expected
