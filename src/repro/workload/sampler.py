"""Histogram-driven workload sampling (the array-native path).

:class:`~repro.workload.queries.QueryWorkloadGenerator` walks per-user
Python dictionaries to build its sampling distributions, which at corpus
scale means materialising the whole store.  The functions here sample the
same default workload semantics — seekers drawn proportionally to their
activity, tags proportionally to popularity, a Poisson number of distinct
tags per query — from three plain arrays:

``tag_table``
    The distinct tags, indexable by tag id.
``activity``
    Per-user action counts (``activity[user_id]``).
``popularity``
    Per-tag action counts aligned with ``tag_table``.

Any store that can produce those histograms (``np.bincount`` over an
arena's mapped action log, a dict sweep over the in-memory store) plugs
into the same sampler, and equal histograms yield bit-identical workloads
regardless of which store produced them.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.query import Query
from ..errors import WorkloadError
from .distributions import poisson_at_least_one

__all__ = ["generator_distributions", "sample_workload", "dataset_workload"]


def generator_distributions(tag_table: Sequence[str],
                            activity: np.ndarray,
                            popularity: np.ndarray):
    """Smoothed sampling distributions from action histograms.

    The distributions :class:`~repro.workload.queries.QueryWorkloadGenerator`
    uses — tags weighted by ``popularity + 1``, active users (non-zero
    activity) weighted by ``activity + 1`` — computed from the same three
    histogram arrays :func:`sample_workload` consumes, so building a
    generator never walks per-user store structures.  Returns
    ``(tag_probabilities, active_users, activity_probabilities)``; the
    probability arrays are normalised and ``active_users`` is the sorted
    array of user ids with at least one action.
    """
    popularity = np.asarray(popularity, dtype=np.float64)
    if popularity.size != len(tag_table):
        raise WorkloadError(
            f"popularity has {popularity.size} entries for "
            f"{len(tag_table)} tags")
    tag_weights = popularity + 1.0
    tag_probabilities = tag_weights / tag_weights.sum() \
        if tag_weights.size else tag_weights
    activity = np.asarray(activity, dtype=np.float64)
    active_users = np.nonzero(activity > 0.0)[0]
    activity_weights = activity[active_users] + 1.0
    activity_probabilities = activity_weights / activity_weights.sum() \
        if activity_weights.size else activity_weights
    return tag_probabilities, active_users, activity_probabilities


def sample_workload(tag_table: Sequence[str],
                    activity: np.ndarray,
                    popularity: np.ndarray,
                    num_queries: int, k: int,
                    seed: int = 3,
                    tags_per_query: float = 2.0) -> List[Query]:
    """Sample ``num_queries`` queries from precomputed action histograms.

    Seekers are drawn with probability proportional to ``activity``, tags
    with probability proportional to ``popularity`` (deduplicated within a
    query), and the per-query tag count is Poisson with a floor of one.
    The draw sequence is fixed for a given ``seed``, so equal histograms
    produce equal workloads no matter how they were computed.
    """
    if num_queries < 1:
        raise WorkloadError(f"num_queries must be >= 1, got {num_queries}")
    if len(tag_table) == 0:
        raise WorkloadError("cannot sample queries: no tags in the corpus")
    activity = np.asarray(activity, dtype=np.float64)
    popularity = np.asarray(popularity, dtype=np.float64)
    if activity.size == 0 or float(activity.sum()) <= 0.0:
        raise WorkloadError("cannot sample queries: no user activity")
    if popularity.size != len(tag_table):
        raise WorkloadError(
            f"popularity has {popularity.size} entries for "
            f"{len(tag_table)} tags")
    if float(popularity.sum()) <= 0.0:
        raise WorkloadError("cannot sample queries: no tag activity")
    rng = np.random.default_rng(seed)
    seeker_cdf = activity.cumsum()
    seeker_cdf /= seeker_cdf[-1]
    tag_cdf = popularity.cumsum()
    tag_cdf /= tag_cdf[-1]
    queries: List[Query] = []
    for _ in range(num_queries):
        seeker = int(seeker_cdf.searchsorted(rng.random(), side="right"))
        count = poisson_at_least_one(rng, tags_per_query)
        chosen: List[str] = []
        attempts = 0
        while len(chosen) < count and attempts < count * 10 + 10:
            attempts += 1
            tag = tag_table[int(tag_cdf.searchsorted(rng.random(),
                                                     side="right"))]
            if tag not in chosen:
                chosen.append(tag)
        queries.append(Query(seeker=seeker, tags=tuple(chosen), k=k))
    return queries


def dataset_workload(dataset, num_queries: int, k: int,
                     seed: int = 3,
                     tags_per_query: float = 2.0) -> List[Query]:
    """Sample a workload from a dataset via its action histograms.

    The histograms are ``np.bincount`` passes over the tagging store's
    action columns — mapped from an arena or built in memory — with no
    per-user Python structures.  Given the same actions,
    the workload is identical to
    :func:`~repro.eval.scale.arena_workload` on the equivalent arena.
    """
    tag_table, activity, popularity = dataset.tagging.action_histograms(
        dataset.num_users)
    return sample_workload(tag_table, activity, popularity,
                           num_queries=num_queries, k=k, seed=seed,
                           tags_per_query=tags_per_query)
