"""Seeded op streams for the four end-to-end workloads.

The generator sees the corpus only through :class:`Corpus` (histograms and
two membership tests), and the server sees only the JSON bodies generated
here.  The same ``(workload, corpus, seed)`` gives byte-identical streams.

Every stream has the same three parts, so every workload reports every
end-to-end metric:

``warmup``
    Queries sent once during set-up, untimed.
``reads``
    The cyclic query list of the timed read phase (empty for ``mixed_rw``).
``rounds``
    ``(update, read-back)`` pairs.  ``mixed_rw`` is made of them; the read
    workloads end with :data:`TAIL_ROUNDS` of them so that ack latency,
    bytes per action and the kill-restart check exist on every workload.
``verify``
    Queries answered before the SIGKILL, after the restart and by an
    in-process engine over the recovered store; all three must agree.

Why each workload looks the way it does is in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.workload.distributions import poisson_at_least_one
from repro.workload.sampler import sample_workload

WORKLOADS = ("read_hot", "read_cold", "read_scan", "mixed_rw")

K = 10
#: Distinct queries of ``read_hot`` — 3 % of the 1 024-entry result cache.
HOT_POOL = 32
HOT_ZIPF_EXPONENT = 1.1
HOT_STREAM = 1024
#: ``read_scan``: warm seekers x most popular tags, every pair at most once.
SCAN_SEEKERS = 32
SCAN_TAGS = 94  # 32 x 94 = 3 008 pairs > the 1 024-entry result cache
#: Updates go to the most popular tags, where posting lists are longest.
WRITE_TAGS = 50
ACTIONS_PER_ROUND = 32  # 64 rounds fill the 2 048-action compaction threshold
FRIENDSHIP_EVERY = 10
#: Read-back seekers: 4 of every 10 reads pay the proximity row that the
#: last friendship invalidated, so p50 lands on warm reads and p90 on cold.
ROUND_SEEKERS = 4
#: Write rounds appended to a read workload.
TAIL_ROUNDS = 20
#: ``mixed_rw`` rounds per second asked for: a fixed count, so that bytes
#: stored, checkpoints and WAL records replayed repeat exactly.
MIXED_ROUNDS_PER_SECOND = 10
VERIFY_QUERIES = 8


@dataclass(frozen=True)
class Corpus:
    """What the generator may know about the corpus."""

    num_users: int
    num_items: int
    tag_table: Sequence[str]
    activity: np.ndarray
    popularity: np.ndarray
    has_action: Callable[[int, int, str], bool]
    has_edge: Callable[[int, int], bool]

    @classmethod
    def of(cls, dataset) -> "Corpus":
        """View of an in-memory :class:`repro.storage.dataset.Dataset`."""
        tag_table, activity, popularity = dataset.tagging.action_histograms(
            dataset.num_users)
        return cls(dataset.num_users, dataset.num_items, tag_table, activity,
                   popularity, dataset.tagging.contains, dataset.graph.has_edge)

    def popular_tags(self, count: int) -> List[str]:
        """The ``count`` most popular tags, most popular first."""
        order = np.argsort(-np.asarray(self.popularity), kind="stable")
        return [self.tag_table[int(i)] for i in order[:count]]


@dataclass
class OpStream:
    """The generated inputs of one run (JSON request bodies)."""

    workload: str
    warmup: List[dict] = field(default_factory=list)
    reads: List[dict] = field(default_factory=list)
    rounds: List[Tuple[dict, dict]] = field(default_factory=list)
    verify: List[dict] = field(default_factory=list)


def mixed_rounds(seconds: float) -> int:
    """Round count of ``mixed_rw`` for a run sized at ``seconds``."""
    return max(1, int(round(seconds * MIXED_ROUNDS_PER_SECOND)))


def _query(seeker: int, tags: Sequence[str], algorithm: str = "") -> dict:
    body: Dict[str, object] = {"seeker": int(seeker), "tags": list(tags),
                               "k": K}
    if algorithm:  # absent = the server's default (social-first)
        body["algorithm"] = algorithm
    return body


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


def _popular_tag_set(rng: np.random.Generator, corpus: Corpus,
                     tag_cdf: np.ndarray) -> List[str]:
    """Poisson(2) distinct tags drawn by popularity (at least one)."""
    count = min(poisson_at_least_one(rng, 2.0), len(corpus.tag_table))
    chosen: List[str] = []
    while len(chosen) < count:
        tag = corpus.tag_table[_draw(rng, tag_cdf)]
        if tag not in chosen:
            chosen.append(tag)
    return chosen


def _read_hot(corpus: Corpus, seed: int, rng: np.random.Generator,
              stream: OpStream) -> None:
    pool: List[dict] = []
    # dataset_workload's sampler; oversampled because draws can repeat.
    for query in sample_workload(corpus.tag_table, corpus.activity,
                                 corpus.popularity, num_queries=HOT_POOL * 4,
                                 k=K, seed=seed):
        body = _query(query.seeker, query.tags)
        if body not in pool:
            pool.append(body)
        if len(pool) == HOT_POOL:
            break
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    zipf = _cdf(ranks ** -HOT_ZIPF_EXPONENT)
    stream.warmup = list(pool)
    stream.reads = [pool[_draw(rng, zipf)] for _ in range(HOT_STREAM)]


def _read_cold(corpus: Corpus, rng: np.random.Generator,
               stream: OpStream) -> None:
    tag_cdf = _cdf(corpus.popularity)
    seekers = rng.permutation(corpus.num_users)
    stream.reads = [
        _query(seeker, _popular_tag_set(rng, corpus, tag_cdf), "exact")
        for seeker in seekers]
    # The last seekers of the permutation pay the server's lazy start-up
    # (algorithm instance, store materialisation); a phase never gets there.
    stream.warmup = stream.reads[-4:]


def _read_scan(corpus: Corpus, rng: np.random.Generator,
               stream: OpStream) -> None:
    tags = corpus.popular_tags(SCAN_TAGS + 1)
    rare, tags = tags[-1], tags[:-1]
    seekers = [int(s) for s in rng.choice(
        corpus.num_users, size=min(SCAN_SEEKERS, corpus.num_users),
        replace=False)]
    stream.warmup = [_query(seeker, [rare]) for seeker in seekers]
    # Block b asks every tag once, of the b-th seeker in that tag's own
    # shuffled seeker order: no pair recurs at all, and every window of
    # len(tags) ops scans the same posting lists whatever the seed.
    orders = {tag: rng.permutation(len(seekers)) for tag in tags}
    for block in range(len(seekers)):
        for index in rng.permutation(len(tags)):
            tag = tags[int(index)]
            stream.reads.append(
                _query(seekers[int(orders[tag][block])], [tag]))


def _rounds(corpus: Corpus, rng: np.random.Generator, count: int,
            stream: OpStream) -> None:
    tags = corpus.popular_tags(WRITE_TAGS)
    tag_index = {tag: i for i, tag in enumerate(corpus.tag_table)}
    tag_cdf = _cdf(np.array([corpus.popularity[tag_index[tag]]
                             for tag in tags]))
    user_cdf = _cdf(corpus.activity)
    seekers = [int(s) for s in rng.choice(
        corpus.num_users, size=min(ROUND_SEEKERS, corpus.num_users),
        replace=False)]
    written: set = set()
    befriended: set = set()
    for number in range(count):
        actions: List[dict] = []
        while len(actions) < ACTIONS_PER_ROUND:
            triple = (_draw(rng, user_cdf), int(rng.integers(corpus.num_items)),
                      tags[_draw(rng, tag_cdf)])
            if triple in written or corpus.has_action(*triple):
                continue
            written.add(triple)
            actions.append({"user_id": triple[0], "item_id": triple[1],
                            "tag": triple[2]})
        update: Dict[str, object] = {"actions": actions}
        if number % FRIENDSHIP_EVERY == FRIENDSHIP_EVERY - 1:
            while True:
                u, v = (int(x) for x in rng.integers(corpus.num_users, size=2))
                edge = (min(u, v), max(u, v))
                if u != v and edge not in befriended \
                        and not corpus.has_edge(u, v):
                    break
            befriended.add(edge)
            update["friendships"] = [[u, v, 1.0]]
        read = _query(seekers[number % len(seekers)], [actions[0]["tag"]],
                      "exact")
        stream.rounds.append((update, read))
    written_tags = sorted({a["tag"] for update, _ in stream.rounds
                           for a in update["actions"]})
    stream.verify = [
        _query(seekers[i % 2], [written_tags[i % len(written_tags)]], "exact")
        for i in range(VERIFY_QUERIES)]
    stream.warmup = stream.warmup + [
        _query(seeker, [tags[-1]], "exact") for seeker in seekers]


def generate(workload: str, corpus: Corpus, seed: int,
             seconds: float) -> OpStream:
    """The op stream of ``workload`` over ``corpus`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    stream = OpStream(workload)
    if workload == "read_hot":
        _read_hot(corpus, seed, rng, stream)
    elif workload == "read_cold":
        _read_cold(corpus, rng, stream)
    elif workload == "read_scan":
        _read_scan(corpus, rng, stream)
    _rounds(corpus, rng,
            mixed_rounds(seconds) if workload == "mixed_rw" else TAIL_ROUNDS,
            stream)
    return stream
