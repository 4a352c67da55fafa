"""Array-backed derived indexes == the dict builds they replaced.

``InvertedIndex`` reads its posting lists off the endorser bundles and
answers ``frequency`` by binary search; ``SocialIndex`` is a per-tag CSR
plus an overlay of updated rows that ``compact()`` folds.  The contract is
exact: on every random small corpus, after every random batch of actions —
tags absent from the base table included — and across a compaction in the
middle of the sequence, an in-memory and an arena-loaded dataset each
answer like the dict oracle in ``tests/index_oracle.py`` built from the
merged actions: the same posting arrays, the same ``frequency()`` for every
``(tag, item)`` and the same ``items_for`` for every ``(user, tag)``.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from index_oracle import OracleInvertedIndex, OracleSocialIndex
from repro.graph import SocialGraph
from repro.storage import (
    Dataset,
    DatasetUpdater,
    InvertedIndex,
    SocialIndex,
    TaggingAction,
)
from tagging_oracle import TaggingStore

BASE_TAGS = ("jazz", "rock", "vinyl")
#: tags only the batches use (``"aaa"`` sorts before every base tag).
DELTA_TAGS = ("aaa", "punk")
NUM_USERS = 6
items = st.one_of(st.integers(min_value=-2, max_value=10),
                  st.sampled_from((-(2 ** 63), 2 ** 50, 2 ** 63 - 1)))


def _actions(draw, tags, stamp):
    triples = draw(st.lists(
        st.tuples(st.integers(0, NUM_USERS - 1), items, st.sampled_from(tags)),
        max_size=20))
    return [TaggingAction(user, item, tag, timestamp=stamp + offset)
            for offset, (user, item, tag) in enumerate(triples)]


@st.composite
def scenarios(draw):
    base = _actions(draw, BASE_TAGS, 0)
    batches = [_actions(draw, BASE_TAGS + DELTA_TAGS, 1000 * (number + 1))
               for number in range(draw(st.integers(1, 4)))]
    compact_after = draw(st.integers(0, len(batches) - 1))
    return base, batches, compact_after


def _check(dataset: Dataset, reference: TaggingStore) -> None:
    inverted = OracleInvertedIndex.build(reference)
    social = OracleSocialIndex.build(reference)
    tags = sorted(set(reference.tags()) | set(BASE_TAGS + DELTA_TAGS))
    universe = sorted({action.item_id for action in reference} | {12345})
    for tag in tags:
        postings = dataset.inverted_index.arrays(tag)
        assert postings.item_ids.tolist() == inverted.item_ids(tag), tag
        assert postings.frequencies.tolist() == inverted.frequencies(tag), tag
        assert dataset.inverted_index.max_frequency(tag) \
            == inverted.max_frequency(tag)
        for item_id in universe:
            assert dataset.inverted_index.frequency(item_id, tag) \
                == inverted.frequency(item_id, tag), (tag, item_id)
        for user in range(NUM_USERS):
            assert dataset.social_index.items_for(user, tag) \
                == social.items_for(user, tag), (user, tag)
    assert dataset.inverted_index.tags() == inverted.tags()
    assert dataset.social_index.num_entries() == social.num_entries()


@pytest.mark.parametrize("form", ["in-memory", "arena"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_indexes_match_the_dict_oracle(form, scenario):
    base, batches, compact_after = scenario
    graph = SocialGraph.from_edges(NUM_USERS, [(0, 1, 0.5), (1, 2, 0.25)])
    dataset = Dataset.build(graph, base, name="oracle")
    with tempfile.TemporaryDirectory() as scratch:
        if form == "arena":
            path = Path(scratch) / "base.arena"
            dataset.to_arena(path)
            dataset = Dataset.from_arena(path)
        updater = DatasetUpdater(dataset)
        reference = TaggingStore()
        reference.add_many(base)
        _check(dataset, reference)
        for number, batch in enumerate(batches):
            reference.add_many(batch)
            updater.add_actions(batch)
            _check(dataset, reference)
            if number == compact_after:
                updater.compact()
                assert dataset.social_index.overlay_size == 0
                _check(dataset, reference)


def test_both_dataset_forms_build_the_same_index_classes(tmp_path):
    dataset = Dataset.build(
        SocialGraph.from_edges(3, [(0, 1, 0.5)]),
        [TaggingAction(0, 5, "jazz"), TaggingAction(1, 6, "rock")])
    dataset.to_arena(tmp_path / "forms.arena")
    mapped = Dataset.from_arena(tmp_path / "forms.arena")
    for built, loaded in ((dataset.inverted_index, mapped.inverted_index),
                          (dataset.social_index, mapped.social_index)):
        assert type(built) is type(loaded)
    assert type(mapped.inverted_index) is InvertedIndex
    assert type(mapped.social_index) is SocialIndex
