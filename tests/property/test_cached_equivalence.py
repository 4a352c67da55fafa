"""Equivalence properties of the proximity row cache.

``CachedProximity`` is the only proximity row store, and it is purely an
*execution strategy*: every observable of a query answer (ranking, exact
scores, access accounting) must be identical to the online path that
computes each seeker's row on demand, whether a row is a miss, a hit or
was evicted and recomputed in between.
"""

import pytest

from repro import SocialSearchEngine
from repro.config import EngineConfig, ProximityConfig, ScoringConfig, WorkloadConfig
from repro.proximity import CachedProximity
from repro.workload import generate_workload

#: Measures whose ranked stream is the canonical (-proximity, user) order,
#: making even the access *traces* of frontier algorithms reproducible from
#: a cached row.
DICT_ORDER_MEASURES = ("ppr", "katz")

ALGORITHMS = ("exact", "social-first", "ta", "nra", "hybrid")


def _engine(dataset, measure, cache_size, alpha=0.5, algorithm="social-first"):
    return SocialSearchEngine(dataset, EngineConfig(
        algorithm=algorithm,
        scoring=ScoringConfig(alpha=alpha),
        proximity=ProximityConfig(measure=measure, cache_size=cache_size),
    ))


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
def test_online_cached_batched_identical(synthetic_dataset, mix, measure,
                                         algorithm):
    online = _engine(synthetic_dataset, measure, cache_size=0)
    cached = _engine(synthetic_dataset, measure, cache_size=128)
    assert isinstance(cached.proximity, CachedProximity)
    baseline = [_signature(online.run(query, algorithm=algorithm))
                for query in mix]
    served = [_signature(cached.run(query, algorithm=algorithm))
              for query in mix]
    assert served == baseline


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_equivalence_across_alpha(synthetic_dataset, mix, alpha):
    online = _engine(synthetic_dataset, "ppr", 0, alpha, "exact")
    cached = _engine(synthetic_dataset, "ppr", 128, alpha, "exact")
    for query in mix:
        assert _signature(cached.run(query)) == _signature(online.run(query))


def test_warm_second_pass_is_also_identical(synthetic_dataset, mix):
    """A pass served from hits answers exactly like the pass that missed."""
    cached = _engine(synthetic_dataset, "ppr", 128, algorithm="exact")
    first = [_signature(cached.run(query)) for query in mix]
    misses = cached.proximity.statistics.misses
    second = [_signature(cached.run(query)) for query in mix]
    assert second == first
    assert cached.proximity.statistics.misses == misses
    assert cached.proximity.statistics.hits > 0


@pytest.mark.parametrize("measure", DICT_ORDER_MEASURES)
def test_evicting_cache_is_also_identical(synthetic_dataset, mix, measure):
    """A one-row cache evicts between seekers and still answers the same."""
    online = _engine(synthetic_dataset, measure, 0, algorithm="exact")
    evicting = _engine(synthetic_dataset, measure, 1, algorithm="exact")
    for query in list(mix) + list(mix):
        assert _signature(evicting.run(query)) \
            == _signature(online.run(query))
    assert evicting.proximity.statistics.evictions > 0
