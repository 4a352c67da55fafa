"""Candidate bookkeeping shared by the bound-based algorithms.

While a threshold-style algorithm runs, every item it has encountered is a
*candidate* with partial knowledge:

* the exact tag frequency for the tags where it was read from a posting
  list or fetched by random access;
* the social mass accumulated so far from *visited* friends, together with
  how many endorsers have been seen per tag.

From that partial knowledge the candidate derives a lower bound (what the
item is certainly worth) and an upper bound (what it could still become,
given the frequency of the next unread posting and the proximity of the
next unvisited friend).  The bounds drive both pruning and termination.

The pool answers "what is the best upper bound outside the current top-k"
*incrementally*: upper bounds only ever decrease as a search progresses
(posting frequencies and frontier proximities are non-increasing, and
refining a candidate's knowledge can only tighten its bound), so the pool
keeps a lazy max-heap of previously computed bounds and re-evaluates just
the entries whose stale value still beats the best fresh one.  The naive
alternative — rescanning every candidate each round — made NRA-style
termination checks quadratic in the candidate count.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

#: No blended score can exceed 1: both components are normalised into
#: [0, 1] and the blend is convex.  Fresh candidates enter the bound heap
#: with this value and get an exact bound lazily on the first query.
_SCORE_CEILING = 1.0


class Candidate:
    """Partial knowledge about one item during query processing."""

    __slots__ = ("item_id", "known_frequency", "social_mass", "endorsers_seen")

    def __init__(self, item_id: int,
                 known_frequency: Optional[Dict[str, int]] = None,
                 social_mass: Optional[Dict[str, float]] = None,
                 endorsers_seen: Optional[Dict[str, int]] = None) -> None:
        self.item_id = item_id
        #: tag -> exact frequency, for tags where frequency is known.
        self.known_frequency: Dict[str, int] = known_frequency or {}
        #: tag -> accumulated proximity mass from visited endorsers.
        self.social_mass: Dict[str, float] = social_mass or {}
        #: tag -> number of endorsers already seen from the frontier.
        self.endorsers_seen: Dict[str, int] = endorsers_seen or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Candidate(item_id={self.item_id}, "
                f"known_frequency={self.known_frequency}, "
                f"social_mass={self.social_mass})")

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def record_frequency(self, tag: str, frequency: int) -> None:
        """Record the exact tag frequency learned via posting read / random access."""
        self.known_frequency[tag] = frequency

    def knows_frequency(self, tag: str) -> bool:
        """Whether the exact frequency for ``tag`` is already known."""
        return tag in self.known_frequency

    def add_social(self, tag: str, proximity: float) -> None:
        """Add one visited endorser's proximity for ``tag``."""
        self.social_mass[tag] = self.social_mass.get(tag, 0.0) + proximity
        self.endorsers_seen[tag] = self.endorsers_seen.get(tag, 0) + 1

    # ------------------------------------------------------------------ #
    # Bounds
    # ------------------------------------------------------------------ #

    def lower_bound(self, alpha: float, normalisers: Mapping[str, float]) -> float:
        """Certain score given only what has been observed so far.

        ``normalisers`` maps each query tag, in query order, to its ``Z_t``
        (:meth:`~repro.core.scoring.ScoringModel.normalisers`, read once per
        search).
        """
        total = 0.0
        for tag, normaliser in normalisers.items():
            textual = self.known_frequency.get(tag, 0) / normaliser
            social = min(1.0, self.social_mass.get(tag, 0.0) / normaliser)
            total += alpha * textual + (1.0 - alpha) * social
        return total / float(len(normalisers))

    def upper_bound(self, alpha: float, normalisers: Mapping[str, float],
                    next_tf: Mapping[str, int], frontier_proximity: float) -> float:
        """Optimistic score given what could still be observed.

        * Textual: the exact frequency when known, otherwise the frequency of
          the next unread posting of that tag (items not yet seen on the list
          cannot beat it).
        * Social: the accumulated mass plus ``frontier_proximity`` for every
          endorser not yet seen.  When the exact frequency is known the number
          of unseen endorsers is ``frequency - seen``; otherwise it is bounded
          by the largest frequency on the tag's posting list.
        """
        total = 0.0
        for tag, normaliser in normalisers.items():
            if tag in self.known_frequency:
                frequency = self.known_frequency[tag]
                textual = frequency / normaliser
                max_endorsers = frequency
            else:
                textual = next_tf.get(tag, 0) / normaliser
                max_endorsers = int(normaliser)
            seen = self.endorsers_seen.get(tag, 0)
            unseen = max(0, max_endorsers - seen)
            social = self.social_mass.get(tag, 0.0) + frontier_proximity * unseen
            social = min(1.0, social / normaliser)
            total += alpha * textual + (1.0 - alpha) * social
        return total / float(len(normalisers))


class CandidatePool:
    """The set of candidates an algorithm is currently reasoning about."""

    __slots__ = ("_candidates", "_bound_heap")

    def __init__(self) -> None:
        self._candidates: Dict[int, Candidate] = {}
        # Lazy max-heap of (-stale_upper_bound, item_id).  Every candidate
        # has exactly one live entry; stale values over-estimate (bounds are
        # non-increasing over a search), which is what makes the lazy
        # re-evaluation in max_upper_bound_excluding sound.
        self._bound_heap: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._candidates)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._candidates

    def __iter__(self):
        return iter(self._candidates.values())

    def get(self, item_id: int) -> Optional[Candidate]:
        """Return the candidate for ``item_id`` or ``None``."""
        return self._candidates.get(item_id)

    def ensure(self, item_id: int) -> Tuple[Candidate, bool]:
        """Return ``(candidate, created)`` for ``item_id``, creating it if new."""
        candidate = self._candidates.get(item_id)
        if candidate is not None:
            return candidate, False
        candidate = Candidate(item_id=item_id)
        self._candidates[item_id] = candidate
        heapq.heappush(self._bound_heap, (-_SCORE_CEILING, item_id))
        return candidate, True

    def item_ids(self) -> Tuple[int, ...]:
        """All candidate item ids (unordered)."""
        return tuple(self._candidates)

    def max_upper_bound_excluding(self, alpha: float, normalisers: Mapping[str, float],
                                  next_tf: Mapping[str, int], frontier_proximity: float,
                                  excluded: frozenset) -> float:
        """Largest upper bound among candidates outside ``excluded``.

        Amortised cost is the number of candidates whose cached bound still
        exceeds the answer, not the pool size: entries are popped in stale
        order, re-evaluated with the current ``next_tf`` / frontier values,
        and pushed back fresh; as soon as the best remaining stale value
        cannot beat the best fresh non-excluded bound found so far, every
        untouched candidate is certifiably below it.

        Correctness relies on bounds never increasing between calls within
        one search (monotone ``next_tf`` / ``frontier_proximity``, knowledge
        refinement, and ``normalisers`` read once per search), which every
        interleaving algorithm satisfies by construction.
        """
        heap = self._bound_heap
        best = 0.0
        refreshed: List[Tuple[float, int]] = []
        while heap:
            stale_negative, item_id = heap[0]
            if -stale_negative <= best:
                break
            heapq.heappop(heap)
            candidate = self._candidates.get(item_id)
            if candidate is None:
                continue
            fresh = candidate.upper_bound(alpha, normalisers, next_tf, frontier_proximity)
            refreshed.append((-fresh, item_id))
            if fresh > best and item_id not in excluded:
                best = fresh
        for entry in refreshed:
            heapq.heappush(heap, entry)
        return best
