"""Tests for the inverted, social and endorser indexes."""

import numpy as np
import pytest

from repro.errors import UnknownTagError
from repro.storage import (
    Dataset,
    EndorserIndex,
    InvertedIndex,
    SocialIndex,
    TaggingAction,
    TaggingStore,
)


@pytest.fixture()
def tagging():
    store = TaggingStore()
    store.add_many([
        TaggingAction(1, 100, "jazz"),
        TaggingAction(2, 100, "jazz"),
        TaggingAction(3, 100, "jazz"),
        TaggingAction(1, 101, "jazz"),
        TaggingAction(2, 101, "jazz"),
        TaggingAction(1, 102, "jazz"),
        TaggingAction(2, 102, "rock"),
        TaggingAction(3, 103, "rock"),
    ])
    return store


@pytest.fixture()
def index(tagging):
    return InvertedIndex.build(tagging)


@pytest.fixture()
def social(tagging):
    return SocialIndex.build(tagging)


class TestInvertedIndex:
    def test_postings_sorted_by_decreasing_frequency(self, index):
        postings = index.postings("jazz")
        frequencies = [posting.frequency for posting in postings]
        assert frequencies == sorted(frequencies, reverse=True)
        assert postings[0].item_id == 100
        assert postings[0].frequency == 3

    def test_frequency_ties_broken_by_item_id(self, index):
        postings = index.postings("rock")
        assert [posting.item_id for posting in postings] == [102, 103]

    def test_max_frequency(self, index):
        assert index.max_frequency("jazz") == 3
        assert index.max_frequency("rock") == 1
        assert index.max_frequency("unknown") == 0

    def test_random_access_frequency(self, index):
        assert index.frequency(101, "jazz") == 2
        assert index.frequency(101, "rock") == 0

    def test_unknown_tag_postings_raise(self, index):
        with pytest.raises(UnknownTagError):
            index.postings("unknown")

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
        assert index.has_tag("rock")
        assert "funk" not in index

    def test_iter_all(self, index):
        entries = list(index.iter_all())
        assert len(entries) == index.num_postings()

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
        return EndorserIndex.build(tagging)

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

    def test_entry_counts_and_memory(self, endorsers, tagging):
        assert endorsers.num_entries() == tagging.num_distinct_triples()
        assert endorsers.memory_bytes() > 0
        assert len(endorsers) == 2


class TestSubsetSocialMass:
    """``subset_social_mass`` is the full reduction restricted to positions.

    The partitioned executor scores a shard's candidates through the subset
    gather and promises scores bit-identical to the full scan, so equality
    here is ``array_equal`` — not ``allclose``.
    """

    @pytest.fixture(scope="class", params=["in-memory", "arena"])
    def endorser_index(self, request, synthetic_dataset, tmp_path_factory):
        if request.param == "in-memory":
            return synthetic_dataset.endorser_index
        path = tmp_path_factory.mktemp("subset-mass") / "corpus.arena"
        synthetic_dataset.to_arena(path)
        return Dataset.from_arena(path).endorser_index

    @staticmethod
    def _positions(case, size, rng):
        if case == "empty":
            return np.zeros(0, dtype=np.int64)
        if case == "single":
            return np.array([int(rng.integers(0, size))], dtype=np.int64)
        if case == "last-segment":
            return np.array([size - 1], dtype=np.int64)
        if case == "unsorted":
            # Repeats and descending runs: any order the caller hands in.
            return rng.integers(0, size, size=2 * size).astype(np.int64)
        return np.arange(size, dtype=np.int64)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", ["empty", "single", "last-segment",
                                      "unsorted", "full"])
    def test_equals_full_reduction_bit_for_bit(self, endorser_index,
                                               synthetic_dataset, case, seed):
        rng = np.random.default_rng(seed)
        # Many-digit floats, so a different summation order would show.
        proximity = rng.random(synthetic_dataset.num_users) ** 3
        checked = 0
        for tag in endorser_index.tags():
            bundle = endorser_index.for_tag(tag)
            positions = self._positions(case, len(bundle), rng)
            subset = bundle.subset_social_mass(proximity, positions)
            assert subset.dtype == np.float64
            assert np.array_equal(subset,
                                  bundle.social_mass(proximity)[positions])
            checked += 1
        assert checked == len(endorser_index) > 0


class TestSocialIndex:
    def test_items_for_user_and_tag(self, social):
        assert social.items_for(1, "jazz") == (100, 101, 102)
        assert social.items_for(2, "rock") == (102,)
        assert social.items_for(2, "vinyl") == ()
        assert social.items_for(42, "jazz") == ()

    def test_profile(self, social):
        profile = social.profile(3)
        assert profile == {"jazz": (100,), "rock": (103,)}
        assert social.profile(42) == {}

    def test_tags_for(self, social):
        assert social.tags_for(2) == ("jazz", "rock")

    def test_users(self, social):
        assert social.users() == [1, 2, 3]
        assert 1 in social
        assert len(social) == 3

    def test_num_entries_matches_distinct_triples(self, social, tagging):
        assert social.num_entries() == tagging.num_distinct_triples()

    def test_iter_entries(self, social, tagging):
        entries = set(social.iter_entries())
        assert (1, "jazz", 100) in entries
        assert len(entries) == tagging.num_distinct_triples()

    def test_memory_bytes_positive(self, social):
        assert social.memory_bytes() > 0


class TestIndexConsistency:
    def test_inverted_and_social_agree_on_frequencies(self, index, social, tagging):
        for tag in tagging.tags():
            for posting in index.postings(tag):
                taggers = [user for user in social.users()
                           if posting.item_id in social.items_for(user, tag)]
                assert len(taggers) == posting.frequency
