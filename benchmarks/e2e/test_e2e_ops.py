"""Server-less checks of the op-stream generator (fast: a 400-user corpus)."""

from __future__ import annotations

import json

import pytest

from repro.workload import scaled_dataset

import ops


def stream_bytes(workload, corpus, seed) -> str:
    stream = ops.generate(workload, corpus, seed, seconds=3)
    return json.dumps([stream.warmup, stream.reads, stream.rounds,
                       stream.verify], sort_keys=True)


@pytest.fixture(scope="module")
def corpus():
    return ops.Corpus.of(scaled_dataset(400, seed=5))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_bytes_other_seed_differs(corpus, workload):
    first = stream_bytes(workload, corpus, 23)
    assert first == stream_bytes(workload, corpus, 23)
    assert first != stream_bytes(workload, corpus, 24)


def test_workloads_differ_for_one_seed(corpus):
    streams = {stream_bytes(w, corpus, 23) for w in ops.WORKLOADS}
    assert len(streams) == len(ops.WORKLOADS)


def test_unknown_workload_is_refused(corpus):
    with pytest.raises(ValueError):
        ops.generate("read_warm", corpus, 23, seconds=3)


def test_read_hot_is_a_small_pool_that_was_warmed(corpus):
    stream = ops.generate("read_hot", corpus, 23, seconds=3)
    pool = {repr(body) for body in stream.warmup[:ops.HOT_POOL]}
    assert len(pool) == ops.HOT_POOL
    assert {repr(body) for body in stream.reads} <= pool
    assert all("algorithm" not in body for body in stream.reads)


def test_read_cold_seeker_never_recurs_within_proximity_cache(corpus):
    stream = ops.generate("read_cold", corpus, 23, seconds=3)
    seekers = [body["seeker"] for body in stream.reads]
    assert sorted(seekers) == list(range(corpus.num_users))
    cyclic = seekers + seekers[:128]
    for index in range(len(seekers)):
        assert cyclic[index] not in cyclic[index + 1:index + 128]
    assert all(body["algorithm"] == "exact" for body in stream.reads)


def test_read_scan_pair_never_recurs_within_result_cache(corpus):
    stream = ops.generate("read_scan", corpus, 23, seconds=3)
    pairs = [(body["seeker"], tuple(body["tags"])) for body in stream.reads]
    assert len(pairs) > 1024
    assert len(set(pairs)) == len(pairs)
    assert all(len(tags) == 1 for _, tags in pairs)
    warmed = {body["seeker"] for body in stream.warmup}
    assert {seeker for seeker, _ in pairs} <= warmed
    # the warm-up must not put a phase pair into the result cache
    assert not {(b["seeker"], tuple(b["tags"])) for b in stream.warmup} \
        & set(pairs)
    # every block of SCAN_TAGS ops asks every tag once
    block = [tags for _, tags in pairs[:ops.SCAN_TAGS]]
    assert len(set(block)) == ops.SCAN_TAGS


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_written_action_and_edge_is_new(corpus, workload):
    stream = ops.generate(workload, corpus, 23, seconds=3)
    expected = ops.mixed_rounds(3) if workload == "mixed_rw" \
        else ops.TAIL_ROUNDS
    assert len(stream.rounds) == expected
    triples, edges = set(), set()
    for number, (update, read) in enumerate(stream.rounds):
        assert len(update["actions"]) == ops.ACTIONS_PER_ROUND
        for action in update["actions"]:
            triple = (action["user_id"], action["item_id"], action["tag"])
            assert not corpus.has_action(*triple)
            assert triple not in triples
            triples.add(triple)
        friendship_round = (number % ops.FRIENDSHIP_EVERY
                            == ops.FRIENDSHIP_EVERY - 1)
        assert ("friendships" in update) == friendship_round
        for u, v, _ in update.get("friendships", ()):
            assert u != v and not corpus.has_edge(u, v)
            assert (min(u, v), max(u, v)) not in edges
            edges.add((min(u, v), max(u, v)))
        assert read["tags"] == [update["actions"][0]["tag"]]
        assert read["algorithm"] == "exact"
    written = {action["tag"] for update, _ in stream.rounds
               for action in update["actions"]}
    assert len(stream.verify) == ops.VERIFY_QUERIES
    assert all(set(body["tags"]) <= written for body in stream.verify)


def test_mixed_rw_has_no_read_phase_and_scales_with_seconds(corpus):
    stream = ops.generate("mixed_rw", corpus, 23, seconds=6)
    assert stream.reads == []
    assert len(stream.rounds) == 6 * ops.MIXED_ROUNDS_PER_SECOND
