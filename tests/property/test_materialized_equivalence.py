"""Equivalence properties of the offline/online proximity split.

The contract the tentpole rests on: serving proximity from materialized
shards is an *execution strategy* — every observable of a query answer
(ranking, exact scores, access accounting) must be identical to the online
path that computes proximity per seeker on demand.
"""

import pytest

from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, ScoringConfig, WorkloadConfig
from repro.workload import generate_workload

#: Measures whose ranked stream is the canonical (-proximity, user) order,
#: making even the access *traces* of frontier algorithms reproducible from
#: shard rows.  (shortest-path streams via Dijkstra, whose equal-proximity
#: tie order is heap-dependent, so it is equivalence-tested at the ranking
#: level through the arena tests instead.)
DICT_ORDER_MEASURES = ("ppr", "katz")

ALGORITHMS = ("exact", "social-first", "ta", "nra", "hybrid")


def _engines(dataset, measure):
    online = SocialSearchEngine(dataset, EngineConfig(
        algorithm="social-first",
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure=measure, cache_size=0),
    ))
    materialized = SocialSearchEngine(dataset, EngineConfig(
        algorithm="social-first",
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure=measure, materialize=True),
    ))
    materialized.proximity.build()
    return online, materialized


def _signature(result):
    return ([item.item_id for item in result.items],
            [item.score for item in result.items],
            result.accounting.to_dict())


@pytest.fixture(scope="module")
def mix(synthetic_dataset):
    return generate_workload(synthetic_dataset,
                             WorkloadConfig(num_queries=10, k=5, seed=7))


@pytest.mark.parametrize("measure", DICT_ORDER_MEASURES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_online_materialized_batched_identical(synthetic_dataset, mix,
                                               measure, algorithm):
    online, materialized = _engines(synthetic_dataset, measure)
    baseline = [_signature(online.run(query, algorithm=algorithm))
                for query in mix]
    shard_served = [_signature(materialized.run(query, algorithm=algorithm))
                    for query in mix]
    assert shard_served == baseline


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_equivalence_across_alpha(synthetic_dataset, mix, alpha):
    def build(materialize):
        proximity = ProximityConfig(measure="ppr", materialize=materialize) \
            if materialize else ProximityConfig(measure="ppr", cache_size=0)
        engine = SocialSearchEngine(synthetic_dataset, EngineConfig(
            algorithm="exact",
            scoring=ScoringConfig(alpha=alpha),
            proximity=proximity,
        ))
        if materialize:
            engine.proximity.build()
        return engine

    online, materialized = build(False), build(True)
    for query in mix:
        want = _signature(online.run(query))
        assert _signature(materialized.run(query)) == want


def test_lazy_refinement_is_also_identical(synthetic_dataset, mix):
    """An *unbuilt* materialized measure (pure lazy refinement) must match."""
    online = SocialSearchEngine(synthetic_dataset, EngineConfig(
        algorithm="exact", proximity=ProximityConfig(measure="ppr", cache_size=0)))
    lazy = SocialSearchEngine(synthetic_dataset, EngineConfig(
        algorithm="exact", proximity=ProximityConfig(measure="ppr", materialize=True)))
    for query in mix:
        assert _signature(lazy.run(query)) == _signature(online.run(query))
    assert lazy.proximity.statistics.refinements > 0
