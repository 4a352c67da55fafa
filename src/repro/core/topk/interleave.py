"""Shared machinery of the interleaving (threshold-style) algorithms.

All four non-exhaustive algorithms — Fagin-style TA, NRA, the round-robin
hybrid and the adaptive social-first algorithm — share the same skeleton:

1. open one :class:`~repro.core.topk.sources.TextualSource` per query tag
   and one :class:`~repro.core.topk.sources.SocialFrontier` for the seeker;
2. repeatedly pick a source (scheduling policy), consume a batch from it and
   update candidate knowledge;
3. after every round, re-offer the candidates it touched to one running
   top-k heap of lower bounds, compare the k-th best against the upper
   bound of everything else, and stop as soon as no outsider can still
   enter the top-k (early termination) or when every source is exhausted.

They differ along two orthogonal axes captured by class attributes:

* ``random_access`` — ``"full"`` fetches an exact score the moment an item
  is discovered (TA), ``"textual"`` fetches only the cheap tag frequencies
  (social-first / hybrid), ``"none"`` never random-accesses (NRA);
* ``scheduling`` — ``"round-robin"`` alternates sources blindly,
  ``"adaptive"`` picks the source whose next element can contribute the
  most to an unseen item's score.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

from ..accounting import AccessAccountant
from ..query import Query, QueryResult
from .base import TopKAlgorithm
from .candidates import Candidate, CandidatePool
from .heap import TopKHeap
from .sources import SocialFrontier, build_textual_sources, next_frequencies

#: Scheduling token meaning "consume the social frontier next".
SOCIAL_SOURCE = "__social__"


class InterleavedTopK(TopKAlgorithm):
    """Skeleton of threshold-style algorithms; subclasses pick the policy."""

    #: One of ``"full"``, ``"textual"``, ``"none"``.
    random_access: str = "textual"
    #: One of ``"round-robin"``, ``"adaptive"``.
    scheduling: str = "round-robin"

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def search(self, query: Query) -> QueryResult:
        """Answer the query by interleaved sorted access with early termination.

        One :class:`TopKHeap` lives for the whole search.  After each round
        only the candidates that round *touched* are re-offered to it: a
        lower bound never decreases within a search (a frequency is recorded
        once, social mass is only added, the normalisers are read once up
        front, and TA's bound is the exact score fixed at discovery), and
        heap keys ``(score, -item_id)`` are distinct, so the heap holds
        exactly the k entries a rebuild over the whole pool would.
        ``touched`` is a local of this call, never state on ``self``: one
        algorithm instance serves concurrent request threads.
        """
        self._validate(query)
        started_at = time.perf_counter()
        accountant = AccessAccountant()

        textual_sources = build_textual_sources(self._dataset.inverted_index, query.tags)
        frontier = SocialFrontier(self._proximity, query.seeker)
        normalisers = self._scoring.normalisers(query.tags)
        pool = CandidatePool()
        heap = TopKHeap(query.k)
        touched: Dict[int, Candidate] = {}
        exact_scores: Dict[int, float] = {}
        proximity_vector: Optional[Dict[int, float]] = None

        # Round-robin order: social frontier first, then tags in query order.
        rotation = [SOCIAL_SOURCE] + list(query.tags)
        rotation_index = 0
        terminated_early = False

        while True:
            accountant.charge_round()
            source = self._choose_source(rotation, rotation_index, textual_sources,
                                         frontier, normalisers)
            rotation_index += 1
            if source is None:
                break  # every source exhausted

            if source == SOCIAL_SOURCE:
                proximity_vector = self._consume_social(
                    query, frontier, pool, touched, exact_scores, accountant,
                    proximity_vector,
                )
            else:
                proximity_vector = self._consume_textual(
                    query, source, textual_sources, pool, touched, exact_scores,
                    accountant, proximity_vector,
                )

            self._offer_touched(heap, touched, normalisers, exact_scores)
            if self._should_stop(heap, pool, normalisers, textual_sources, frontier):
                terminated_early = not self._all_exhausted(textual_sources, frontier)
                break

        return self._finalise(query, heap, accountant, started_at,
                              terminated_early=terminated_early,
                              proximity_vector=proximity_vector)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _choose_source(self, rotation, rotation_index: int,
                       textual_sources, frontier: SocialFrontier,
                       normalisers: Mapping[str, float]) -> Optional[str]:
        """Pick the next source to consume, or ``None`` when all are exhausted."""
        if self._all_exhausted(textual_sources, frontier):
            return None
        if self.scheduling == "adaptive":
            return self._choose_adaptive(textual_sources, frontier, normalisers)
        # Round-robin: skip exhausted sources.
        for offset in range(len(rotation)):
            source = rotation[(rotation_index + offset) % len(rotation)]
            if source == SOCIAL_SOURCE:
                if not frontier.exhausted():
                    return source
            elif not textual_sources[source].exhausted():
                return source
        return None

    def _choose_adaptive(self, textual_sources, frontier: SocialFrontier,
                         normalisers: Mapping[str, float]) -> Optional[str]:
        """Pick the source whose next element has the largest score potential.

        The potential of the social frontier is ``(1 - α) · next proximity``
        (a friend that proximate could push any item by that much); the
        potential of a textual source is ``α · next frequency / Z_t``.
        """
        alpha = self._scoring.alpha
        best_source: Optional[str] = None
        best_potential = -1.0
        if not frontier.exhausted():
            potential = (1.0 - alpha) * frontier.next_proximity()
            best_source, best_potential = SOCIAL_SOURCE, potential
        for tag, source in textual_sources.items():
            if source.exhausted():
                continue
            potential = alpha * source.next_frequency() / normalisers[tag]
            if potential > best_potential:
                best_source, best_potential = tag, potential
        return best_source

    @staticmethod
    def _all_exhausted(textual_sources, frontier: SocialFrontier) -> bool:
        return frontier.exhausted() and all(
            source.exhausted() for source in textual_sources.values()
        )

    # ------------------------------------------------------------------ #
    # Consuming sources
    # ------------------------------------------------------------------ #

    def _consume_social(self, query: Query, frontier: SocialFrontier,
                        pool: CandidatePool, touched: Dict[int, Candidate],
                        exact_scores: Dict[int, float],
                        accountant: AccessAccountant,
                        proximity_vector: Optional[Dict[int, float]]
                        ) -> Optional[Dict[int, float]]:
        """Visit up to ``batch_size`` friends and credit their endorsements."""
        for _ in range(self._config.batch_size):
            entry = frontier.pop()
            if entry is None:
                break
            user, proximity = entry
            accountant.charge_user_visit()
            for tag in query.tags:
                accountant.charge_social()
                for item_id in self._dataset.social_index.items_for(user, tag):
                    candidate, created = pool.ensure(item_id)
                    if created:
                        accountant.charge_candidate()
                        proximity_vector = self._on_new_candidate(
                            query, candidate, exact_scores, accountant, proximity_vector,
                        )
                    candidate.add_social(tag, proximity)
                    touched[item_id] = candidate
        return proximity_vector

    def _consume_textual(self, query: Query, tag: str, textual_sources,
                         pool: CandidatePool, touched: Dict[int, Candidate],
                         exact_scores: Dict[int, float],
                         accountant: AccessAccountant,
                         proximity_vector: Optional[Dict[int, float]]
                         ) -> Optional[Dict[int, float]]:
        """Read up to ``batch_size`` postings of ``tag``."""
        source = textual_sources[tag]
        for _ in range(self._config.batch_size):
            posting = source.read()
            if posting is None:
                break
            accountant.charge_sequential()
            candidate, created = pool.ensure(posting.item_id)
            candidate.record_frequency(tag, posting.frequency)
            touched[posting.item_id] = candidate
            if created:
                accountant.charge_candidate()
                proximity_vector = self._on_new_candidate(
                    query, candidate, exact_scores, accountant, proximity_vector,
                )
        return proximity_vector

    def _on_new_candidate(self, query: Query, candidate: Candidate,
                          exact_scores: Dict[int, float],
                          accountant: AccessAccountant,
                          proximity_vector: Optional[Dict[int, float]]
                          ) -> Optional[Dict[int, float]]:
        """Apply the algorithm's random-access policy to a new candidate."""
        if self.random_access == "none":
            return proximity_vector
        if self.random_access == "textual":
            for tag in query.tags:
                if not candidate.knows_frequency(tag):
                    accountant.charge_random()
                    candidate.record_frequency(
                        tag, self._dataset.inverted_index.frequency(candidate.item_id, tag)
                    )
            return proximity_vector
        # "full": fetch the exact blended score immediately (classic TA).
        if proximity_vector is None:
            proximity_vector = self._scoring.proximity_vector(query.seeker)
        breakdown = self._scoring.exact_score(
            query.seeker, candidate.item_id, query.tags, proximity_vector,
            accountant=accountant,
        )
        exact_scores[candidate.item_id] = breakdown.score
        return proximity_vector

    # ------------------------------------------------------------------ #
    # Bounds and termination
    # ------------------------------------------------------------------ #

    def _offer_touched(self, heap: TopKHeap, touched: Dict[int, Candidate],
                       normalisers: Mapping[str, float],
                       exact_scores: Mapping[int, float]) -> None:
        """Re-offer this round's touched candidates at their current lower
        bound (TA: the exact score), then forget them."""
        if self.random_access == "full":
            for item_id in touched:
                heap.offer(item_id, exact_scores[item_id])
        else:
            alpha = self._scoring.alpha
            for item_id, candidate in touched.items():
                heap.offer(item_id, candidate.lower_bound(alpha, normalisers))
        touched.clear()

    def _should_stop(self, heap: TopKHeap, pool: CandidatePool,
                     normalisers: Mapping[str, float], textual_sources,
                     frontier: SocialFrontier) -> bool:
        """Early-termination test: can any outsider still beat the k-th result?"""
        if not self._config.early_termination:
            return False
        if not heap.is_full():
            return False
        kth = heap.kth_score()
        frontier_proximity = frontier.next_proximity()
        next_tf = next_frequencies(textual_sources)
        unseen_bound = self._scoring.unseen_upper_bound(next_tf, frontier_proximity,
                                                        normalisers)
        if kth < unseen_bound:
            return False
        if self.random_access == "full":
            # Seen candidates already carry exact scores; only unseen items matter.
            return True
        retained = frozenset(heap.item_ids())
        outsider_bound = pool.max_upper_bound_excluding(
            self._scoring.alpha, normalisers, next_tf, frontier_proximity, retained,
        )
        return kth >= outsider_bound
