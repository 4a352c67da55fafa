"""Array-native delta merge == the dict-and-sort rebuilds it replaced.

``DatasetUpdater.add_actions`` folds a batch into each touched tag with
``repro.storage.delta.merged_tag_endorsers`` (``searchsorted`` +
``np.insert``) and reads the tag's posting list off the merged bundle.  The
contract is exact: on random small corpora, after every batch of a random
sequence of batches and compactions — new items, new tags, taggers new to
an existing item, item ids at the int64 extremes, duplicates of stored
actions — every touched tag's endorser bundle and posting list is
**byte-identical** (dtype, shape, values) to what the reference kernels in
``tests/delta_oracle.py`` build from the previous state, for both the
in-memory and the arena-backed dataset.  Tags the batch did not touch keep
their arrays by reference.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import delta_oracle
from repro.graph import SocialGraph
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from repro.storage.arena import build_arena

BASE_TAGS = ("jazz", "rock", "vinyl")
#: tags only the batches use, so each first use creates the tag
DELTA_TAGS = ("aaa", "punk")
NUM_USERS = 6
#: small ids collide often (taggers new to an existing item); the extremes
#: pin that no kernel assumes an id range
items = st.one_of(st.integers(min_value=-2, max_value=10),
                  st.sampled_from((-(2 ** 63), 2 ** 62, 2 ** 63 - 1)))


def _actions(draw, tags, stamp, max_size):
    triples = draw(st.lists(
        st.tuples(st.integers(0, NUM_USERS - 1), items, st.sampled_from(tags)),
        max_size=max_size))
    return [TaggingAction(user, item, tag, timestamp=stamp + offset)
            for offset, (user, item, tag) in enumerate(triples)]


@st.composite
def scenarios(draw):
    base = _actions(draw, BASE_TAGS, 0, 30)
    batches = [
        (_actions(draw, BASE_TAGS + DELTA_TAGS, 1000 * (number + 1), 12),
         draw(st.booleans()))
        for number in range(draw(st.integers(min_value=1, max_value=5)))]
    return base, batches


def _bundles(index):
    """The index's ``tag -> bundle`` map as of now (bundles are immutable)."""
    return {tag: index.for_tag(tag) for tag in index.tags()}


def _same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class _Reference:
    """The previous state plus each batch, merged by the oracle kernels."""

    def __init__(self, dataset: Dataset, base) -> None:
        self.bundles = _bundles(dataset.endorser_index)
        self.lists = {tag: dataset.inverted_index.arrays(tag)
                      for tag in dataset.inverted_index.tags()}
        self.counts = {}
        self.stored = {(a.user_id, a.item_id, a.tag) for a in base}

    def apply(self, batch) -> None:
        added = {}
        for action in batch:
            key = (action.user_id, action.item_id, action.tag)
            if key in self.stored:
                continue
            self.stored.add(key)
            added.setdefault(action.tag, {}) \
                .setdefault(action.item_id, []).append(action.user_id)
        increments = delta_oracle.posting_deltas(added)
        for tag, by_item in added.items():
            self.bundles[tag] = delta_oracle.merged_tag_endorsers(
                tag, self.bundles.get(tag), by_item)
            counts = delta_oracle.merged_counts(self.lists.get(tag),
                                                increments[tag])
            self.lists[tag], _ = delta_oracle.posting_list_from_counts(counts)
            self.counts[tag] = {item: counts[item] for item in by_item}

    def check(self, dataset: Dataset) -> None:
        endorsers = dataset.endorser_index
        inverted = dataset.inverted_index
        assert sorted(self.bundles) == endorsers.tags()
        for tag, expected in self.bundles.items():
            actual = endorsers.for_tag(tag)
            for name in ("item_ids", "frequencies", "offsets", "taggers"):
                _same(getattr(actual, name), getattr(expected, name))
            postings = self.lists[tag]
            _same(inverted.arrays(tag).item_ids, postings.item_ids)
            _same(inverted.arrays(tag).frequencies, postings.frequencies)
            assert inverted.max_frequency(tag) == \
                int(postings.frequencies[0])
        for tag, counts in self.counts.items():
            for item, frequency in counts.items():
                assert inverted.frequency(item, tag) == frequency


def _check_batches(dataset: Dataset, base, batches) -> None:
    updater = DatasetUpdater(dataset)
    reference = _Reference(dataset, base)
    reference.check(dataset)
    for batch, compact in batches:
        before = _bundles(dataset.endorser_index)
        touched = {action.tag for action in batch
                   if (action.user_id, action.item_id, action.tag)
                   not in reference.stored}
        reference.apply(batch)
        updater.add_actions(batch)
        reference.check(dataset)
        for tag, bundle in before.items():
            if tag not in touched:
                assert dataset.endorser_index.for_tag(tag) is bundle
        if compact:
            updater.compact()
            reference.check(dataset)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_batches_merge_like_the_reference(scenario):
    base, batches = scenario
    graph = SocialGraph.from_edges(NUM_USERS, [(0, 1, 0.5)])
    _check_batches(Dataset.build(graph, base, name="delta"), base, batches)
    with tempfile.TemporaryDirectory() as scratch:
        path = build_arena(Dataset.build(graph, base, name="delta"),
                           Path(scratch) / "base.arena")
        _check_batches(Dataset.from_arena(path), base, batches)


def test_every_batch_shape_on_a_fixed_corpus(tmp_path):
    """New item, new tag, new tagger of a stored item, extreme ids, a dup."""
    base = [TaggingAction(0, 5, "jazz"), TaggingAction(2, 5, "jazz"),
            TaggingAction(1, 9, "jazz"), TaggingAction(3, 2 ** 63 - 1, "rock")]
    batches = [
        ([TaggingAction(1, 5, "jazz"),           # new tagger, mid-segment
          TaggingAction(4, 5, "jazz"),           # new tagger, segment end
          TaggingAction(0, 7, "jazz"),           # new item between two
          TaggingAction(0, -(2 ** 63), "jazz"),  # new first item
          TaggingAction(0, 2 ** 63 - 1, "jazz"),  # new last item
          TaggingAction(2, 5, "jazz"),           # stored: ignored
          TaggingAction(5, 1, "punk")], True),   # new tag
        ([TaggingAction(5, 9, "jazz"), TaggingAction(3, 9, "jazz"),
          TaggingAction(0, 2 ** 63 - 1, "rock")], False),
    ]
    graph = SocialGraph.from_edges(NUM_USERS, [(0, 1, 0.5)])
    _check_batches(Dataset.build(graph, base, name="fixed"), base, batches)
    path = build_arena(Dataset.build(graph, base, name="fixed"),
                       tmp_path / "base.arena")
    _check_batches(Dataset.from_arena(path), base, batches)
