"""Per-tag CSR index of item → endorser (tagger) ids.

The social component of the blended score is, for every candidate item, a
sum of the seeker's proximity over the item's endorsers.  Scalar scoring
walks a Python set per ``(item, tag)`` pair; the endorser index stores the
same relation in a compressed-sparse-row layout per tag so the social mass
of a whole block of candidates is a single gather + segmented reduction:

``mass = np.add.reduceat(prox[taggers], offsets[:-1])``

Layout per tag (see :class:`TagEndorsers`):

* ``item_ids`` — the items carrying the tag, ascending (binary-searchable);
* ``frequencies`` — distinct-endorser counts aligned with ``item_ids``;
* ``offsets`` — CSR offsets of length ``len(item_ids) + 1``;
* ``taggers`` — concatenated endorser ids, ascending within each segment.

Every segment is non-empty by construction (an item appears only when at
least one user endorsed it with the tag), which keeps ``reduceat`` exact.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .tagging import TaggingStore


class TagEndorsers:
    """CSR arrays of one tag's item → endorser relation (read-only)."""

    __slots__ = ("tag", "item_ids", "frequencies", "offsets", "taggers",
                 "_sorted_taggers", "_sorted_positions")

    def __init__(self, tag: str, item_ids: np.ndarray, frequencies: np.ndarray,
                 offsets: np.ndarray, taggers: np.ndarray) -> None:
        self.tag = tag
        self.item_ids = item_ids
        self.frequencies = frequencies
        self.offsets = offsets
        self.taggers = taggers
        # Lazily built tagger-sorted view (see seeker_flags): built on first
        # use so arena-mapped bundles stay zero-cost until queried.
        self._sorted_taggers: np.ndarray = None  # type: ignore[assignment]
        self._sorted_positions: np.ndarray = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return int(self.item_ids.shape[0])

    @property
    def num_entries(self) -> int:
        """Total number of ``(item, tagger)`` pairs for this tag."""
        return int(self.taggers.shape[0])

    def taggers_of(self, item_id: int) -> np.ndarray:
        """Endorser ids of one item (empty array when the item lacks the tag)."""
        position = int(np.searchsorted(self.item_ids, item_id))
        if position >= len(self) or int(self.item_ids[position]) != item_id:
            return self.taggers[0:0]
        return self.taggers[self.offsets[position]:self.offsets[position + 1]]

    def social_mass(self, proximity: np.ndarray) -> np.ndarray:
        """Proximity-weighted endorser mass of every item carrying the tag.

        ``proximity`` is a dense per-user array (the seeker's entry must be
        zero, which every :meth:`~repro.proximity.base.ProximityMeasure.vector_array`
        guarantees).  Returns one float per entry of :attr:`item_ids`.
        """
        if len(self) == 0:
            return np.zeros(0, dtype=np.float64)
        return np.add.reduceat(proximity[self.taggers], self.offsets[:-1])

    def subset_social_mass(self, proximity: np.ndarray,
                           positions: np.ndarray) -> np.ndarray:
        """Proximity-weighted endorser mass of a subset of the tag's items.

        ``positions`` index :attr:`item_ids`; every referenced segment is
        non-empty by index construction, which keeps ``reduceat`` exact.
        Returns one float per requested position — bit-identical to
        ``social_mass(proximity)[positions]``, because element order inside
        each segment matches the full reduction.
        """
        starts = self.offsets[positions]
        lengths = (self.offsets[positions + 1] - starts).astype(np.int64)
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(positions.shape[0], dtype=np.float64)
        segment_offsets = np.zeros(positions.shape[0], dtype=np.int64)
        np.cumsum(lengths[:-1], out=segment_offsets[1:])
        # Flat gather indices: each segment's start repeated, plus the offset
        # within the segment.
        flat = np.repeat(starts, lengths) \
            + (np.arange(total, dtype=np.int64) - np.repeat(segment_offsets, lengths))
        return np.add.reduceat(proximity[self.taggers[flat]], segment_offsets)

    def positions_of(self, item_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Locate ``item_ids`` (ascending) in this tag's item array.

        Returns ``(positions, found)`` where ``found`` marks the queried
        items that carry the tag and ``positions`` indexes :attr:`item_ids`
        for them (positions of absent items are clipped and must be masked
        with ``found``).
        """
        if len(self) == 0:
            return (np.zeros(item_ids.shape[0], dtype=np.int64),
                    np.zeros(item_ids.shape[0], dtype=bool))
        positions = np.searchsorted(self.item_ids, item_ids)
        positions = np.minimum(positions, len(self) - 1)
        found = self.item_ids[positions] == item_ids
        return positions, found

    def seeker_flags(self, seeker: int) -> np.ndarray:
        """Boolean per item: did the seeker endorse it with this tag?

        Answered in ``O(log E + hits)`` from a tagger-sorted view of the
        CSR built lazily on first use, instead of scanning every ``(item,
        tagger)`` entry per query: ``_sorted_taggers`` is the tagger column
        in ascending order and ``_sorted_positions`` maps each sorted entry
        back to its item row.
        """
        flags = np.zeros(len(self), dtype=bool)
        if len(self) == 0:
            return flags
        sorted_taggers = self._sorted_taggers
        if sorted_taggers is None:
            order = np.argsort(self.taggers, kind="stable")
            sorted_taggers = self.taggers[order]
            # Publish positions before taggers: concurrent readers gate on
            # _sorted_taggers, so both fields must be set once they see it.
            # (A racing duplicate build is harmless — same arrays.)
            self._sorted_positions = \
                np.searchsorted(self.offsets, order, side="right") - 1
            self._sorted_taggers = sorted_taggers
        lo = int(np.searchsorted(sorted_taggers, seeker, side="left"))
        hi = int(np.searchsorted(sorted_taggers, seeker, side="right"))
        if hi > lo:
            flags[self._sorted_positions[lo:hi]] = True
        return flags

    def seeker_count(self, seeker: int) -> int:
        """Number of items the seeker endorsed with this tag (``O(log E)``).

        The cheap precursor to :meth:`seeker_flags`: callers that only need
        "did the seeker touch this tag at all?" (per-query charge
        adjustments) skip the flag-array allocation and gather when the
        answer is 0 — the common case for tags outside the seeker's own
        profile.
        """
        if len(self) == 0:
            return 0
        if self._sorted_taggers is None:
            self.seeker_flags(seeker)  # builds the sorted view
        sorted_taggers = self._sorted_taggers
        lo = int(np.searchsorted(sorted_taggers, seeker, side="left"))
        hi = int(np.searchsorted(sorted_taggers, seeker, side="right"))
        return hi - lo

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self.item_ids.nbytes + self.frequencies.nbytes
                   + self.offsets.nbytes + self.taggers.nbytes)


class EndorserIndex:
    """Tag → :class:`TagEndorsers` CSR bundle over the tagging relation.

    This is the third derived index of a dataset (next to the inverted and
    social indexes) and the backbone of the vectorized scoring kernels.
    """

    def __init__(self) -> None:
        self._tags: Dict[str, TagEndorsers] = {}
        #: Bumped whenever a delta is folded in.  Consumers that memoise
        #: derived state (the scoring model's candidate blocks) key their
        #: caches on ``(id(index), version)`` so incremental, in-place
        #: maintenance invalidates them exactly like an object swap would.
        self.version = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, tagging: TaggingStore) -> "EndorserIndex":
        """Build the per-tag CSR arrays from a tagging store."""
        index = cls()
        for tag in tagging.tags():
            items: List[int] = sorted(tagging.items_for_tag(tag))
            if not items:
                continue
            offsets = np.zeros(len(items) + 1, dtype=np.int64)
            segments: List[List[int]] = []
            for position, item_id in enumerate(items):
                # Sorted segments make the reduction order deterministic and
                # identical to the scalar scorer's iteration order.
                taggers = list(tagging.taggers_sorted(item_id, tag))
                segments.append(taggers)
                offsets[position + 1] = offsets[position] + len(taggers)
            taggers_flat = np.array(
                [tagger for segment in segments for tagger in segment],
                dtype=np.int64,
            ) if offsets[-1] else np.zeros(0, dtype=np.int64)
            index._tags[tag] = TagEndorsers(
                tag=tag,
                item_ids=np.array(items, dtype=np.int64),
                frequencies=np.diff(offsets),
                offsets=offsets,
                taggers=taggers_flat,
            )
        return index

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def apply_delta(self, added: Mapping[str, Mapping[int, Sequence[int]]]
                    ) -> None:
        """Merge new ``tag -> item -> [taggers]`` pairs into the touched tags.

        Each touched tag's CSR bundle is replaced wholesale with a merged
        one (O(tag size), not O(corpus)); untouched tags keep their —
        possibly arena-mapped — arrays by reference.  The replaced bundles
        are byte-identical to what :meth:`build` would produce from the
        merged tagging store, so readers racing the swap see either the old
        or the new bundle, both internally consistent.
        """
        from .delta import merged_tag_endorsers

        touched = False
        for tag, items in added.items():
            if not items:
                continue
            self._tags[tag] = merged_tag_endorsers(tag, self._tags.get(tag),
                                                   items)
            touched = True
        if touched:
            self.version += 1

    def snapshot(self) -> Dict[str, TagEndorsers]:
        """A frozen ``tag -> bundle`` view of the current state.

        The returned dict is decoupled from future :meth:`apply_delta`
        calls (which replace entries in ``self``); the bundles themselves
        are immutable.  :class:`repro.storage.arena.ArenaTaggingStore` uses
        this as its delta-overlay *base*, so its merged reads never
        double-count a delta that was also folded into the live index.
        """
        return dict(self._tags)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __contains__(self, tag: str) -> bool:
        return tag in self._tags

    def __len__(self) -> int:
        return len(self._tags)

    def tags(self) -> List[str]:
        """All indexed tags in sorted order."""
        return sorted(self._tags)

    def for_tag(self, tag: str) -> Optional[TagEndorsers]:
        """The CSR bundle of ``tag``, or ``None`` for unknown tags."""
        return self._tags.get(tag)

    def candidate_items(self, tags: Tuple[str, ...]) -> np.ndarray:
        """Ascending union of the items carrying any of ``tags``."""
        arrays = [self._tags[tag].item_ids for tag in tags if tag in self._tags]
        if not arrays:
            return np.zeros(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    def num_entries(self) -> int:
        """Total number of ``(item, tag, tagger)`` entries."""
        return sum(bundle.num_entries for bundle in self._tags.values())

    def memory_bytes(self) -> int:
        """Approximate memory footprint of all CSR arrays in bytes."""
        return sum(bundle.memory_bytes() for bundle in self._tags.values()) \
            + len(self._tags) * 64
