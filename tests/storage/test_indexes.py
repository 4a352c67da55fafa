"""Tests for the inverted, social and endorser indexes."""

import numpy as np
import pytest

from index_oracle import OracleInvertedIndex, OracleSocialIndex
from repro.storage import (
    EndorserIndex,
    InvertedIndex,
    SocialIndex,
    TaggingAction,
    TaggingStore,
)
from tagging_oracle import TaggingStore as OracleTaggingStore

ACTIONS = [
    TaggingAction(1, 100, "jazz"),
    TaggingAction(2, 100, "jazz"),
    TaggingAction(3, 100, "jazz"),
    TaggingAction(1, 101, "jazz"),
    TaggingAction(2, 101, "jazz"),
    TaggingAction(1, 102, "jazz"),
    TaggingAction(2, 102, "rock"),
    TaggingAction(3, 103, "rock"),
]


@pytest.fixture()
def tagging():
    return TaggingStore.from_actions(ACTIONS)


@pytest.fixture()
def oracle_tagging():
    store = OracleTaggingStore()
    store.add_many(ACTIONS)
    return store


def _endorser_index(tagging):
    tags = tagging.tags()
    columns = tagging.action_arrays({tag: index for index, tag in enumerate(tags)})
    return EndorserIndex.build(tags, columns["tag_ids"], columns["item_ids"],
                               columns["user_ids"])


@pytest.fixture()
def index(tagging):
    return InvertedIndex.build(_endorser_index(tagging))


@pytest.fixture()
def social(tagging):
    return SocialIndex.build(tagging)


class TestInvertedIndex:
    def test_postings_sorted_by_decreasing_frequency(self, index):
        postings = index.arrays("jazz")
        frequencies = postings.frequencies.tolist()
        assert frequencies == sorted(frequencies, reverse=True)
        assert postings.posting(0).item_id == 100
        assert postings.posting(0).frequency == 3

    def test_frequency_ties_broken_by_item_id(self, index):
        assert index.arrays("rock").item_ids.tolist() == [102, 103]

    def test_max_frequency(self, index):
        assert index.max_frequency("jazz") == 3
        assert index.max_frequency("rock") == 1
        assert index.max_frequency("unknown") == 0

    def test_random_access_frequency(self, index):
        assert index.frequency(101, "jazz") == 2
        assert index.frequency(101, "rock") == 0
        assert index.frequency(101, "unknown") == 0

    def test_unknown_tag_has_no_list(self, index):
        assert "unknown" not in index
        assert index.list_length("unknown") == 0

    def test_unknown_tag_cursor_is_empty(self, index):
        cursor = index.cursor("unknown")
        assert cursor.exhausted()
        assert cursor.next() is None
        assert cursor.peek_frequency() == 0

    def test_cursor_consumes_in_order(self, index):
        cursor = index.cursor("jazz")
        read = []
        while not cursor.exhausted():
            assert cursor.peek_frequency() >= 0
            read.append(cursor.next().frequency)
        assert read == [3, 2, 1]
        assert cursor.remaining() == 0
        assert cursor.position == 3

    def test_list_length_and_num_postings(self, index):
        assert index.list_length("jazz") == 3
        assert index.list_length("rock") == 2
        assert index.num_postings() == 5

    def test_tags_and_contains(self, index):
        assert index.tags() == ["jazz", "rock"]
        assert "jazz" in index
        assert "rock" in index
        assert "funk" not in index

    def test_lists_and_frequencies_match_the_dict_oracle(self, index,
                                                         oracle_tagging):
        oracle = OracleInvertedIndex.build(oracle_tagging)
        assert index.tags() == oracle.tags()
        entries = list(oracle.iter_all())
        assert len(entries) == index.num_postings()
        for tag in oracle.tags():
            assert index.arrays(tag).item_ids.tolist() == oracle.item_ids(tag)
            assert index.arrays(tag).frequencies.tolist() \
                == oracle.frequencies(tag)
        for tag, posting in entries:
            assert index.frequency(posting.item_id, tag) == posting.frequency

    def test_memory_bytes_positive(self, index):
        assert index.memory_bytes() > 0

    def test_arrays_parallel_to_postings(self, index):
        postings = index.arrays("jazz")
        assert postings.item_ids.tolist() == [100, 101, 102]
        assert postings.frequencies.tolist() == [3, 2, 1]
        assert index.arrays("unknown").item_ids.shape == (0,)

    def test_next_block_consumes_in_batches(self, index):
        cursor = index.cursor("jazz")
        item_ids, frequencies = cursor.next_block(2)
        assert item_ids.tolist() == [100, 101]
        assert frequencies.tolist() == [3, 2]
        assert cursor.position == 2
        assert cursor.peek_frequency() == 1
        item_ids, frequencies = cursor.next_block(10)
        assert item_ids.tolist() == [102]
        assert cursor.exhausted()
        item_ids, _ = cursor.next_block(4)
        assert item_ids.shape == (0,)

    def test_next_block_interleaves_with_scalar_next(self, index):
        cursor = index.cursor("jazz")
        assert cursor.next().item_id == 100
        item_ids, _ = cursor.next_block(5)
        assert item_ids.tolist() == [101, 102]

    def test_next_block_rejects_negative(self, index):
        with pytest.raises(ValueError):
            index.cursor("jazz").next_block(-1)


class TestEndorserIndex:
    @pytest.fixture()
    def endorsers(self, tagging):
        return _endorser_index(tagging)

    def test_tags_and_contains(self, endorsers):
        assert endorsers.tags() == ["jazz", "rock"]
        assert "jazz" in endorsers
        assert "funk" not in endorsers
        assert endorsers.for_tag("funk") is None

    def test_items_ascending_with_frequencies(self, endorsers):
        bundle = endorsers.for_tag("jazz")
        assert bundle.item_ids.tolist() == [100, 101, 102]
        assert bundle.frequencies.tolist() == [3, 2, 1]
        assert bundle.offsets.tolist() == [0, 3, 5, 6]

    def test_taggers_sorted_within_segments(self, endorsers):
        bundle = endorsers.for_tag("jazz")
        assert bundle.taggers_of(100).tolist() == [1, 2, 3]
        assert bundle.taggers_of(101).tolist() == [1, 2]
        assert bundle.taggers_of(999).shape == (0,)

    def test_social_mass_is_segmented_proximity_sum(self, endorsers):
        proximity = np.zeros(6)
        proximity[1] = 0.5
        proximity[2] = 0.25
        bundle = endorsers.for_tag("jazz")
        masses = bundle.social_mass(proximity)
        # jazz taggers: 100 -> {1,2,3}, 101 -> {1,2}, 102 -> {1}
        assert masses.tolist() == pytest.approx([0.75, 0.75, 0.5])

    def test_positions_of_marks_missing_items(self, endorsers):
        bundle = endorsers.for_tag("rock")
        positions, found = bundle.positions_of(np.array([100, 102, 103]))
        assert found.tolist() == [False, True, True]
        assert positions[found].tolist() == [0, 1]

    def test_seeker_flags(self, endorsers):
        bundle = endorsers.for_tag("jazz")
        assert bundle.seeker_flags(1).tolist() == [True, True, True]
        assert bundle.seeker_flags(3).tolist() == [True, False, False]
        assert bundle.seeker_flags(99).tolist() == [False, False, False]

    def test_candidate_items_union(self, endorsers):
        assert endorsers.candidate_items(("jazz", "rock")).tolist() == \
            [100, 101, 102, 103]
        assert endorsers.candidate_items(("funk",)).shape == (0,)

    def test_entry_counts_and_memory(self, endorsers, oracle_tagging):
        assert endorsers.num_entries() == oracle_tagging.num_distinct_triples()
        assert endorsers.memory_bytes() > 0
        assert len(endorsers) == 2


class TestSocialIndex:
    def test_items_for_user_and_tag(self, social):
        assert social.items_for(1, "jazz") == (100, 101, 102)
        assert social.items_for(2, "rock") == (102,)
        assert social.items_for(2, "vinyl") == ()
        assert social.items_for(42, "jazz") == ()

    def test_rows_match_the_dict_oracle(self, social, oracle_tagging):
        oracle = OracleSocialIndex.build(oracle_tagging)
        assert oracle.users() == [1, 2, 3]
        for user in range(5):
            for tag in ("jazz", "rock", "funk"):
                assert social.items_for(user, tag) == oracle.items_for(user, tag)
        assert {tag: social.items_for(3, tag) for tag in oracle.tags_for(3)} \
            == {"jazz": (100,), "rock": (103,)}

    def test_num_entries_matches_distinct_triples(self, social, oracle_tagging):
        assert social.num_entries() == oracle_tagging.num_distinct_triples()
        assert social.num_entries() \
            == len(list(OracleSocialIndex.build(oracle_tagging).iter_entries()))

    def test_memory_bytes_counts_arrays_and_overlay(self, social):
        arrays = social.memory_bytes()
        assert arrays > 0
        # Reads do not change the reported footprint.
        social.items_for(1, "jazz")
        assert social.memory_bytes() == arrays
        social.apply_delta({(1, "jazz"): [103], (4, "funk"): [7, 8]})
        assert social.memory_bytes() > arrays
        assert social.compact() == 2
        assert social.items_for(1, "jazz") == (100, 101, 102, 103)
        assert social.items_for(4, "funk") == (7, 8)
        # Compacted: three more items, one more tag offset, one more row
        # (its user id and its segment offset), eight bytes each.
        assert social.memory_bytes() == arrays + (3 + 1 + 2) * 8


class TestIndexConsistency:
    def test_inverted_and_social_agree_on_frequencies(self, index, social, tagging):
        users = tagging.users()
        for tag in tagging.tags():
            postings = index.arrays(tag)
            for position in range(len(postings)):
                posting = postings.posting(position)
                taggers = [user for user in users
                           if posting.item_id in social.items_for(user, tag)]
                assert len(taggers) == posting.frequency
