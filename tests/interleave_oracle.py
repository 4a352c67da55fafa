"""Reference interleaved top-k: rebuild the heap over the whole pool.

``InterleavedTopK.search`` keeps one ``TopKHeap`` for a whole search and
re-offers only the candidates a round touched.  This is the loop it
replaced, kept verbatim as the oracle the equivalence tests compare it
with: after every round a fresh heap is built from every candidate's
current lower bound (TA: its exact score), each tag's ``Z_t`` read again on
every call.  Sources, consumption and the termination test are the
algorithm's own.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.core.accounting import AccessAccountant
from repro.core.query import Query, QueryResult
from repro.core.scoring import ScoringModel
from repro.core.topk.candidates import Candidate, CandidatePool
from repro.core.topk.heap import TopKHeap
from repro.core.topk.interleave import SOCIAL_SOURCE, InterleavedTopK
from repro.core.topk.sources import SocialFrontier, build_textual_sources


def lower_bound(scoring: ScoringModel, candidate: Candidate,
                tags: Tuple[str, ...]) -> float:
    """``Candidate.lower_bound`` as it was: ``Z_t`` read per tag per call."""
    alpha = scoring.alpha
    total = 0.0
    for tag in tags:
        normaliser = scoring.normaliser(tag)
        textual = candidate.known_frequency.get(tag, 0) / normaliser
        social = min(1.0, candidate.social_mass.get(tag, 0.0) / normaliser)
        total += alpha * textual + (1.0 - alpha) * social
    return total / float(len(tags))


def current_topk(algorithm: InterleavedTopK, query: Query, pool: CandidatePool,
                 exact_scores: Dict[int, float]) -> TopKHeap:
    """Top-k heap over current lower bounds (exact scores for TA)."""
    heap = TopKHeap(query.k)
    for candidate in pool:
        if algorithm.random_access == "full":
            score = exact_scores.get(candidate.item_id, 0.0)
        else:
            score = lower_bound(algorithm.scoring, candidate, query.tags)
        heap.offer(candidate.item_id, score)
    return heap


def search(algorithm: InterleavedTopK, query: Query) -> QueryResult:
    """``algorithm.search(query)`` with a whole-pool heap rebuild per round."""
    algorithm._validate(query)
    started_at = time.perf_counter()
    accountant = AccessAccountant()

    textual_sources = build_textual_sources(algorithm.dataset.inverted_index, query.tags)
    frontier = SocialFrontier(algorithm.proximity, query.seeker)
    normalisers = algorithm.scoring.normalisers(query.tags)
    pool = CandidatePool()
    exact_scores: Dict[int, float] = {}
    proximity_vector: Optional[Dict[int, float]] = None

    # Round-robin order: social frontier first, then tags in query order.
    rotation = [SOCIAL_SOURCE] + list(query.tags)
    rotation_index = 0
    terminated_early = False

    while True:
        accountant.charge_round()
        source = algorithm._choose_source(rotation, rotation_index, textual_sources,
                                          frontier, normalisers)
        rotation_index += 1
        if source is None:
            break  # every source exhausted

        # The touched set is the incremental heap's input; the rebuild
        # below ignores it, so each round gets a throwaway one.
        if source == SOCIAL_SOURCE:
            proximity_vector = algorithm._consume_social(
                query, frontier, pool, {}, exact_scores, accountant, proximity_vector,
            )
        else:
            proximity_vector = algorithm._consume_textual(
                query, source, textual_sources, pool, {}, exact_scores, accountant,
                proximity_vector,
            )

        heap = current_topk(algorithm, query, pool, exact_scores)
        if algorithm._should_stop(heap, pool, normalisers, textual_sources, frontier):
            terminated_early = not algorithm._all_exhausted(textual_sources, frontier)
            break

    heap = current_topk(algorithm, query, pool, exact_scores)
    return algorithm._finalise(query, heap, accountant, started_at,
                               terminated_early=terminated_early,
                               proximity_vector=proximity_vector)
