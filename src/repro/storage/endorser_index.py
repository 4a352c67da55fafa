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

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self.item_ids.nbytes + self.frequencies.nbytes
                   + self.offsets.nbytes + self.taggers.nbytes)


class EndorserIndex:
    """Tag → :class:`TagEndorsers` CSR bundle over the tagging relation.

    This is the first derived index of a dataset — the inverted index reads
    its posting lists and random-access frequencies off these bundles — and
    the backbone of the vectorized scoring kernels.
    """

    def __init__(self) -> None:
        self._tags: Dict[str, TagEndorsers] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, tag_table: Sequence[str], tag_ids: np.ndarray,
              item_ids: np.ndarray, user_ids: np.ndarray) -> "EndorserIndex":
        """Build the per-tag CSR arrays from distinct action columns.

        ``tag_table[tag_ids[r]]`` is row *r*'s tag and no ``(user, item,
        tag)`` triple repeats.  One stable ``lexsort`` orders the rows by
        tag, item, then tagger; each tag's run of rows is its bundle, each
        item's run within it a segment.  Sorted segments make the reduction
        order deterministic and identical to the scalar scorer's.
        """
        order = np.lexsort((user_ids, item_ids, tag_ids))
        tags = np.asarray(tag_ids)[order]
        items = np.asarray(item_ids)[order]
        taggers = np.asarray(user_ids)[order]
        new_tag = np.ones(order.shape[0], dtype=bool)
        new_tag[1:] = tags[1:] != tags[:-1]
        new_item = new_tag.copy()
        new_item[1:] |= items[1:] != items[:-1]
        starts = np.flatnonzero(new_item)
        bounds = np.append(starts, order.shape[0])
        first_segments = np.flatnonzero(new_tag[starts])
        last_segments = np.append(first_segments[1:], starts.shape[0])
        bundles: Dict[str, TagEndorsers] = {}
        for first, last in zip(first_segments.tolist(), last_segments.tolist()):
            offsets = bounds[first:last + 1] - bounds[first]
            tag = tag_table[int(tags[bounds[first]])]
            bundles[tag] = TagEndorsers(
                tag=tag,
                item_ids=items[starts[first:last]],
                frequencies=np.diff(offsets),
                offsets=offsets,
                taggers=taggers[bounds[first]:bounds[last]],
            )
        index = cls()
        for tag in sorted(bundles):
            index._tags[tag] = bundles[tag]
        return index

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def apply_delta(self, added: Mapping[str, Tuple[Sequence[int], Sequence[int]]]
                    ) -> Dict[str, TagEndorsers]:
        """Merge new ``tag -> ([items], [taggers])`` pairs into the touched tags.

        Each touched tag's CSR bundle is replaced wholesale with a merged
        one built from the base arrays and the batch's pairs alone (see
        :func:`repro.storage.delta.merged_tag_endorsers`); untouched tags
        keep their — possibly arena-mapped — arrays by reference.  The
        replaced bundles are byte-identical to what :meth:`build` would
        produce from the merged tagging store, so readers racing the swap
        see either the old or the new bundle, both internally consistent.
        Returns the merged bundles by tag (the posting lists are read off
        them).
        """
        from .delta import merged_tag_endorsers

        merged: Dict[str, TagEndorsers] = {}
        for tag, (items, taggers) in added.items():
            if not len(items):
                continue
            merged[tag] = self._tags[tag] = merged_tag_endorsers(
                tag, self._tags.get(tag), items, taggers)
        return merged

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
