"""The column tagging store and the endorser bundles == the dict store.

``TaggingStore`` keeps the action log as int64 columns plus an append tail
and answers per-user reads with numpy masks; "who tagged item *i* with tag
*t*" is read off the live ``EndorserIndex`` bundles.  The contract is
exact: on random small corpora with repeated triples and item ids and
timestamps at the int64 extremes, after every random batch of actions —
tags absent from the base table included — and across a compaction in the
middle of the sequence, an in-memory and an arena-loaded dataset each
answer like the dict store in ``tests/tagging_oracle.py`` fed the same
actions: every public read, ``action_arrays`` bit for bit, ``actions()`` in
order, ``contains`` for stored and absent triples, each bundle's taggers,
frequencies and items, and both halves of ``split_holdout(0.2)`` (for the
arena form also after a round trip through an arena's holdout section).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import SocialGraph
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from tagging_oracle import TaggingStore as OracleTaggingStore

BASE_TAGS = ("jazz", "rock", "vinyl")
#: tags only the batches use (``"aaa"`` sorts before every base tag).
DELTA_TAGS = ("aaa", "punk")
NUM_USERS = 6
EXTREMES = (-(2 ** 63), 2 ** 50, 2 ** 63 - 1)
#: small ids repeat triples often; the extremes pin that nothing packs ids
ids = st.one_of(st.integers(min_value=-2, max_value=6), st.sampled_from(EXTREMES))


def _actions(draw, tags, max_size):
    rows = draw(st.lists(
        st.tuples(st.integers(0, NUM_USERS - 1), ids, st.sampled_from(tags), ids),
        max_size=max_size))
    return [TaggingAction(user, item, tag, timestamp=stamp)
            for user, item, tag, stamp in rows]


@st.composite
def scenarios(draw):
    base = _actions(draw, BASE_TAGS, 30)
    batches = [_actions(draw, BASE_TAGS + DELTA_TAGS, 12)
               for _ in range(draw(st.integers(1, 4)))]
    compact_after = draw(st.integers(0, len(batches) - 1))
    return base, batches, compact_after


def _same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_store(store, oracle) -> None:
    assert len(store) == len(oracle)
    assert store.actions() == oracle.actions()
    tags = oracle.tags()
    assert store.tags() == tags
    assert store.users() == oracle.users()
    for tag_ids in ({tag: index for index, tag in enumerate(tags)},
                    {tag: 100 - index for index, tag in enumerate(tags)}):
        got = store.action_arrays(tag_ids)
        want = oracle.action_arrays(tag_ids)
        assert set(got) == set(want)
        for name in want:
            _same_array(got[name], want[name])
    for got, want in zip(store.action_histograms(NUM_USERS),
                         oracle.action_histograms(NUM_USERS)):
        if isinstance(want, list):
            assert got == want
        else:
            _same_array(got, want)
    for user in range(-1, NUM_USERS + 1):
        assert store.items_for_user(user) == oracle.items_for_user(user)
        assert store.tags_for_user(user) == oracle.tags_for_user(user)
        for tag in BASE_TAGS + DELTA_TAGS + ("absent",):
            assert store.items_for_user_tag(user, tag) \
                == oracle.items_for_user_tag(user, tag)
    for action in oracle.actions():
        assert store.contains(action.user_id, action.item_id, action.tag)
        assert not store.contains(action.user_id, action.item_id, "absent")
        assert store.contains(action.user_id, 12345, action.tag) \
            == oracle.contains(action.user_id, 12345, action.tag)


def _check_bundles(dataset: Dataset, oracle) -> None:
    assert dataset.endorser_index.tags() == oracle.tags()
    for tag in oracle.tags():
        bundle = dataset.endorser_index.for_tag(tag)
        assert bundle.item_ids.tolist() == sorted(oracle.items_for_tag(tag))
        for position, item_id in enumerate(bundle.item_ids.tolist()):
            assert bundle.taggers_of(item_id).tolist() \
                == list(oracle.taggers_sorted(item_id, tag))
            assert int(bundle.frequencies[position]) \
                == oracle.tag_frequency(item_id, tag)


def _check_split(store, oracle) -> None:
    for got, want in zip(store.split_holdout(0.2), oracle.split_holdout(0.2)):
        _check_store(got, want)


@pytest.mark.parametrize("form", ["in-memory", "arena"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_tagging_store_matches_the_dict_oracle(form, scenario):
    base, batches, compact_after = scenario
    graph = SocialGraph.from_edges(NUM_USERS, [(0, 1, 0.5), (1, 2, 0.25)])
    dataset = Dataset.build(graph, base, name="oracle")
    oracle = OracleTaggingStore()
    oracle.add_many(base)
    with tempfile.TemporaryDirectory() as scratch:
        if form == "arena":
            dataset.to_arena(Path(scratch) / "base.arena")
            dataset = Dataset.from_arena(Path(scratch) / "base.arena")
        _check_store(dataset.tagging, oracle)
        _check_bundles(dataset, oracle)
        updater = DatasetUpdater(dataset)
        for number, batch in enumerate(batches):
            summary = updater.add_actions(batch)
            assert summary.actions_added == oracle.add_many(batch)
            _check_store(dataset.tagging, oracle)
            _check_bundles(dataset, oracle)
            if number == compact_after:
                updater.compact()
                assert dataset.tagging.delta_size == 0
                _check_store(dataset.tagging, oracle)
        _check_split(dataset.tagging, oracle)
        split = dataset.with_holdout(0.2)
        if form == "arena":
            split.to_arena(Path(scratch) / "split.arena")
            split = Dataset.from_arena(Path(scratch) / "split.arena")
        train, holdout = oracle.split_holdout(0.2)
        _check_store(split.tagging, train)
        _check_bundles(split, train)
        _check_store(split.holdout, holdout)
