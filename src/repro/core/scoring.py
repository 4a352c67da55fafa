"""The blended social/textual scoring model.

For a seeker *s*, query *q* and item *i* the score is

``score(s, q, i) = (1/|q|) · Σ_{t∈q} [ α·ntf(i,t) + (1−α)·nsf(s,i,t) ]``

with

* ``ntf(i,t)  = tf(i,t) / Z_t`` — tag frequency (distinct endorsers)
  normalised by the largest frequency ``Z_t`` on the tag's posting list;
* ``nsf(s,i,t) = (Σ_{v ∈ taggers(i,t)} prox(s,v)) / Z_t`` — proximity-weighted
  endorser mass, normalised by the same ``Z_t``.

Because proximities are at most 1, ``nsf ≤ ntf ≤ 1``; both components live
on the same scale, the aggregate is monotone in every input, and the bound
arithmetic used by the threshold-style algorithms stays simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..config import ScoringConfig
from ..proximity.base import ProximityMeasure
from ..storage.dataset import Dataset
from .accounting import AccessAccountant


@dataclass(frozen=True)
class ScoredBlock:
    """Vectorized scores of a block of candidate items (parallel arrays).

    ``random_charges`` (present when requested) is the number of random
    accesses :meth:`ScoringModel.exact_score` would spend scoring each item
    — one frequency lookup per tag plus one per endorser other than the
    seeker — so callers can charge the same accounting without redoing the
    gathers.
    """

    item_ids: np.ndarray
    scores: np.ndarray
    textual: np.ndarray
    social: np.ndarray
    random_charges: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.item_ids.shape[0])


@dataclass(frozen=True)
class ScoreBreakdown:
    """Exact score of one item, split into its components."""

    score: float
    textual: float
    social: float


class ScoringModel:
    """Computes exact scores and the bound terms algorithms reason with."""

    #: Upper bound on memoised candidate blocks (distinct tag combinations).
    _CANDIDATE_CACHE_LIMIT = 1024

    def __init__(self, dataset: Dataset, proximity: ProximityMeasure,
                 config: Optional[ScoringConfig] = None) -> None:
        self._dataset = dataset
        self._proximity = proximity
        self._config = config or ScoringConfig()
        self._candidate_cache: Dict[Tuple[str, ...], np.ndarray] = {}
        self._candidate_cache_token: Optional[object] = None

    @property
    def dataset(self) -> Dataset:
        """The dataset scores are computed against."""
        return self._dataset

    @property
    def proximity(self) -> ProximityMeasure:
        """The proximity measure supplying the social component."""
        return self._proximity

    @property
    def config(self) -> ScoringConfig:
        """The scoring configuration in effect."""
        return self._config

    @property
    def alpha(self) -> float:
        """Weight of the textual component."""
        return self._config.alpha

    # ------------------------------------------------------------------ #
    # Normalisation
    # ------------------------------------------------------------------ #

    def normaliser(self, tag: str) -> float:
        """``Z_t``: the largest tag frequency of ``tag`` (at least 1)."""
        return float(max(1, self._dataset.inverted_index.max_frequency(tag)))

    def normalisers(self, tags: Iterable[str]) -> Dict[str, float]:
        """``Z_t`` of every tag, in the given order, read once.

        The interleaving algorithms take this snapshot at the start of a
        search and reason with it throughout, so their bounds stay monotone
        even if a concurrent update raises a tag's largest frequency
        mid-query.
        """
        return {tag: self.normaliser(tag) for tag in tags}

    def normalised_tf(self, item_id: int, tag: str) -> float:
        """``ntf(i, t)`` — normalised tag frequency in [0, 1]."""
        return self._dataset.inverted_index.frequency(item_id, tag) / self.normaliser(tag)

    # ------------------------------------------------------------------ #
    # Exact scoring
    # ------------------------------------------------------------------ #

    def social_mass(self, seeker: int, item_id: int, tag: str,
                    proximity_vector: Mapping[int, float],
                    accountant: Optional[AccessAccountant] = None) -> float:
        """Raw proximity-weighted endorser mass ``Σ_v prox(s, v)``.

        The seeker's own endorsement is skipped uncharged: a user's own
        bookmarks are not "help from friends".  Taggers are visited in
        ascending id order — the same order the endorser index stores its
        CSR segments in — so this loop and :meth:`score_block` accumulate
        floating-point mass in the same order.
        """
        mass = 0.0
        for tagger in self._dataset.tagging.taggers_sorted(item_id, tag):
            if tagger == seeker:
                continue
            if accountant is not None:
                accountant.charge_random()
            mass += proximity_vector.get(tagger, 0.0)
        return mass

    def exact_score(self, seeker: int, item_id: int, tags: Iterable[str],
                    proximity_vector: Mapping[int, float],
                    accountant: Optional[AccessAccountant] = None) -> ScoreBreakdown:
        """Exact blended score of ``item_id`` for the seeker and tags."""
        tags = tuple(tags)
        if not tags:
            return ScoreBreakdown(0.0, 0.0, 0.0)
        alpha = self._config.alpha
        textual_total = 0.0
        social_total = 0.0
        for tag in tags:
            normaliser = self.normaliser(tag)
            if accountant is not None:
                accountant.charge_random()
            textual = self._dataset.inverted_index.frequency(item_id, tag) / normaliser
            social = self.social_mass(seeker, item_id, tag, proximity_vector,
                                      accountant=accountant) / normaliser
            textual_total += textual
            social_total += min(1.0, social)
        m = float(len(tags))
        textual_component = textual_total / m
        social_component = social_total / m
        score = alpha * textual_component + (1.0 - alpha) * social_component
        return ScoreBreakdown(score=score, textual=textual_component,
                              social=social_component)

    def proximity_vector(self, seeker: int) -> Dict[int, float]:
        """Full proximity vector of the seeker (used by exact baselines)."""
        return self._proximity.vector(seeker)

    def proximity_vector_array(self, seeker: int) -> np.ndarray:
        """Dense per-user proximity array of the seeker (read-only).

        The seeker's own entry is always 0, which is exactly the value
        :meth:`social_mass` observes (``vector()`` never contains the
        seeker), so gathering from this array needs no seeker-exclusion
        branch.
        """
        return self._proximity.vector_array(seeker)

    # ------------------------------------------------------------------ #
    # Vectorized scoring
    # ------------------------------------------------------------------ #

    def score_block(self, seeker: int, item_ids: np.ndarray,
                    tags: Tuple[str, ...],
                    proximity: Optional[np.ndarray] = None,
                    with_charges: bool = False) -> ScoredBlock:
        """Exact blended scores of a block of items, computed with numpy.

        ``item_ids`` must be ascending (use :meth:`candidate_block` for the
        full per-query candidate set).  The arithmetic mirrors
        :meth:`exact_score` operation for operation — per-tag accumulation
        in query order, endorser mass reduced in ascending tagger order —
        so the two paths agree to within one or two ulps and produce
        identical rankings under the (score desc, item id asc) order.

        With ``with_charges`` the returned block also carries the per-item
        random-access counts :meth:`exact_score` would charge (computed in
        the same pass, from the same gathers).
        """
        if proximity is None:
            proximity = self.proximity_vector_array(seeker)
        n = int(item_ids.shape[0])
        alpha = self._config.alpha
        textual_total = np.zeros(n, dtype=np.float64)
        social_total = np.zeros(n, dtype=np.float64)
        charges = np.zeros(n, dtype=np.int64) if with_charges else None
        if n and tags:
            for tag in tags:
                normaliser = self.normaliser(tag)
                bundle = self._dataset.endorser_index.for_tag(tag)
                if bundle is None or len(bundle) == 0:
                    if charges is not None:
                        charges += 1  # the frequency lookup still happens
                    continue
                # prox[seeker] is 0 by the vector_array contract, so the
                # seeker's own endorsements contribute zero mass here; they
                # only have to be left out of the charges below.
                mass = bundle.social_mass(proximity)
                if item_ids is bundle.item_ids:
                    # Single-tag fast path: the candidate block IS this
                    # tag's item array (candidate_block returns it by
                    # identity), so every item is found at its own position
                    # and the gather/mask machinery would be a no-op.
                    frequencies = bundle.frequencies
                    social = np.minimum(1.0, mass / normaliser)
                else:
                    positions, found = bundle.positions_of(item_ids)
                    frequencies = np.where(found, bundle.frequencies[positions], 0)
                    social = np.minimum(
                        1.0, np.where(found, mass[positions], 0.0) / normaliser)
                textual_total += frequencies / normaliser
                social_total += social
                if charges is not None:
                    seeker_flags = bundle.seeker_flags(seeker).astype(np.int64)
                    if item_ids is not bundle.item_ids:
                        seeker_flags = np.where(found, seeker_flags[positions], 0)
                    charges += 1 + frequencies - seeker_flags
        m = float(len(tags)) if tags else 1.0
        textual_component = textual_total / m
        social_component = social_total / m
        scores = alpha * textual_component + (1.0 - alpha) * social_component
        return ScoredBlock(item_ids=item_ids, scores=scores,
                           textual=textual_component, social=social_component,
                           random_charges=charges)

    def candidate_block(self, tags: Tuple[str, ...]) -> np.ndarray:
        """Ascending ids of every item carrying at least one query tag.

        The block depends only on the tag combination, so it is memoised
        per :class:`ScoringModel` (one model lives per algorithm instance):
        repeated queries over popular tag sets skip the union/unique pass.
        The returned array must be treated as read-only.
        """
        index = self._dataset.endorser_index
        # The token holds the index object itself (not its id(), which
        # CPython may reuse after a swap-and-collect) plus the version
        # DatasetUpdater bumps per in-place folded delta; either kind of
        # change invalidates blocks memoised against the previous state.
        token = self._candidate_cache_token
        if token is None or token[0] is not index \
                or token[1] != getattr(index, "version", 0):
            self._candidate_cache.clear()
            self._candidate_cache_token = (index, getattr(index, "version", 0))
        block = self._candidate_cache.get(tags)
        if block is None:
            if len(self._candidate_cache) >= self._CANDIDATE_CACHE_LIMIT:
                self._candidate_cache.clear()
            block = index.candidate_items(tags)
            self._candidate_cache[tags] = block
        return block

    # ------------------------------------------------------------------ #
    # Bound arithmetic (used by threshold-style algorithms)
    # ------------------------------------------------------------------ #

    def combine(self, textual: float, social: float) -> float:
        """Blend already-normalised per-query components."""
        return self._config.alpha * textual + (1.0 - self._config.alpha) * social

    def unseen_upper_bound(self, next_tf: Mapping[str, int],
                           frontier_proximity: float,
                           normalisers: Mapping[str, float]) -> float:
        """Upper bound on the score of any item not yet encountered.

        ``next_tf[t]`` is the frequency of the next unread posting of tag
        ``t`` (0 when exhausted); ``frontier_proximity`` is the proximity of
        the next unvisited friend (0 when the frontier is exhausted);
        ``normalisers`` maps each query tag to its ``Z_t``
        (:meth:`normalisers`).
        """
        if not normalisers:
            return 0.0
        alpha = self._config.alpha
        total = 0.0
        for tag, normaliser in normalisers.items():
            textual_bound = next_tf.get(tag, 0) / normaliser
            social_bound = min(1.0, frontier_proximity)
            total += alpha * textual_bound + (1.0 - alpha) * social_bound
        return total / float(len(normalisers))
