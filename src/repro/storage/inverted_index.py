"""Frequency-ordered inverted index over the tagging relation.

For each tag ``t`` the index stores the posting list of items endorsed with
``t``, sorted by decreasing *tag frequency* (number of distinct endorsers).
This is the classic sorted-access source of threshold-style top-k
algorithms: reading the list front-to-back yields items in decreasing
textual score, and the frequency of the next unread entry is an upper bound
for every unseen item.

Storage layout: each posting list is a pair of parallel numpy int64 arrays
(``item_ids`` / ``frequencies``) so the vectorized scoring kernels can
consume whole lists (or blocks of them) without materialising Python
objects.  The classic :class:`Posting` / :class:`PostingListCursor` API is
kept as a thin view over the arrays for the scalar algorithms and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import UnknownTagError
from .endorser_index import TagEndorsers
from .tagging import TaggingStore

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_FREQS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class Posting:
    """One entry of a tag's posting list."""

    item_id: int
    frequency: int

    def to_tuple(self) -> Tuple[int, int]:
        """Return ``(item_id, frequency)``."""
        return (self.item_id, self.frequency)


class PostingList:
    """One tag's posting list as parallel ``item_ids`` / ``frequencies`` arrays.

    Both arrays are ordered by decreasing frequency with ties broken by
    ascending item id, exactly like the tuple-of-:class:`Posting` view.
    The arrays are owned by the index and must not be mutated.
    """

    __slots__ = ("item_ids", "frequencies")

    def __init__(self, item_ids: np.ndarray, frequencies: np.ndarray) -> None:
        self.item_ids = item_ids
        self.frequencies = frequencies

    def __len__(self) -> int:
        return int(self.item_ids.shape[0])

    def posting(self, position: int) -> Posting:
        """Materialise one entry as a :class:`Posting` view."""
        return Posting(item_id=int(self.item_ids[position]),
                       frequency=int(self.frequencies[position]))


_EMPTY_LIST = PostingList(_EMPTY_IDS, _EMPTY_FREQS)


class PostingListCursor:
    """Sequential-access cursor over one tag's posting list.

    The cursor is the unit the access accountant charges for "sequential
    accesses": each :meth:`next` call reads one posting, and
    :meth:`next_block` reads up to ``n`` postings in one batched step for
    the vectorized consumers (each posting in the block still counts as one
    sequential access).
    """

    __slots__ = ("_tag", "_list", "_position")

    def __init__(self, tag: str, postings: PostingList) -> None:
        self._tag = tag
        self._list = postings
        self._position = 0

    @property
    def tag(self) -> str:
        """Tag this cursor iterates over."""
        return self._tag

    @property
    def position(self) -> int:
        """Number of postings consumed so far."""
        return self._position

    def exhausted(self) -> bool:
        """Whether every posting has been consumed."""
        return self._position >= len(self._list)

    def peek_frequency(self) -> int:
        """Frequency of the next unread posting (0 when exhausted).

        This is the textual-score upper bound for any item not yet seen on
        this list.
        """
        if self.exhausted():
            return 0
        return int(self._list.frequencies[self._position])

    def next(self) -> Optional[Posting]:
        """Consume and return the next posting, or ``None`` when exhausted."""
        if self.exhausted():
            return None
        posting = self._list.posting(self._position)
        self._position += 1
        return posting

    def next_block(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Consume up to ``n`` postings, returned as ``(item_ids, frequencies)``.

        The returned arrays are read-only views into the index storage; an
        empty pair means the cursor is exhausted.  This is the batched
        sequential-access path of the vectorized kernels.
        """
        if n < 0:
            raise ValueError(f"block size must be non-negative, got {n}")
        start = self._position
        end = min(start + n, len(self._list))
        self._position = end
        return (self._list.item_ids[start:end], self._list.frequencies[start:end])

    def remaining(self) -> int:
        """Number of unread postings."""
        return len(self._list) - self._position


class InvertedIndex:
    """Tag → frequency-ordered posting list, plus per-tag statistics."""

    def __init__(self) -> None:
        self._lists: Dict[str, PostingList] = {}
        self._posting_views: Dict[str, Tuple[Posting, ...]] = {}
        self._max_frequency: Dict[str, int] = {}
        self._frequency: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, tagging: TaggingStore) -> "InvertedIndex":
        """Build the index from a tagging store."""
        index = cls()
        for tag in tagging.tags():
            entries: List[Tuple[int, int]] = []
            for item_id in tagging.items_for_tag(tag):
                frequency = tagging.tag_frequency(item_id, tag)
                if frequency > 0:
                    entries.append((item_id, frequency))
            # Sort by decreasing frequency, breaking ties by item id so the
            # order (and therefore every algorithm's access trace) is
            # deterministic.
            entries.sort(key=lambda entry: (-entry[1], entry[0]))
            if entries:
                item_ids = np.array([item_id for item_id, _ in entries], dtype=np.int64)
                frequencies = np.array([freq for _, freq in entries], dtype=np.int64)
            else:
                item_ids, frequencies = _EMPTY_IDS, _EMPTY_FREQS
            index._lists[tag] = PostingList(item_ids, frequencies)
            index._max_frequency[tag] = entries[0][1] if entries else 0
            for item_id, frequency in entries:
                index._frequency[(tag, item_id)] = frequency
        return index

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def apply_delta(self, merged: Mapping[str, TagEndorsers],
                    touched: Mapping[str, Tuple[Sequence[int], Sequence[int]]]
                    ) -> None:
        """Refresh the touched tags' lists from their merged endorser bundles.

        ``merged`` is what :meth:`EndorserIndex.apply_delta` returned for a
        batch and ``touched`` the batch it folded in (``tag -> ([items],
        [taggers])``).  A posting list holds the same ``(item, frequency)``
        pairs as the tag's endorser bundle, so each touched list is the
        bundle's arrays reordered by ``(-frequency, item_id)`` — one
        ``lexsort`` per tag, byte-identical to what :meth:`build` produces
        from the merged store.  Untouched tags keep their (possibly
        arena-mapped) arrays by reference; the random-access frequencies of
        the batch's items are patched in place.
        """
        for tag, bundle in merged.items():
            order = np.lexsort((bundle.item_ids, -bundle.frequencies))
            frequencies = bundle.frequencies[order]
            self._lists[tag] = PostingList(bundle.item_ids[order], frequencies)
            self._max_frequency[tag] = int(frequencies[0]) if len(order) else 0
            self._posting_views.pop(tag, None)
            items = touched[tag][0]
            positions = np.searchsorted(bundle.item_ids,
                                        np.asarray(items, dtype=np.int64))
            for item_id, frequency in zip(
                    items, bundle.frequencies[positions].tolist()):
                self._frequency[(tag, item_id)] = frequency

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __contains__(self, tag: str) -> bool:
        return tag in self._lists

    def tags(self) -> List[str]:
        """All indexed tags in sorted order."""
        return sorted(self._lists)

    def has_tag(self, tag: str) -> bool:
        """Whether the tag has a (possibly empty) posting list."""
        return tag in self._lists

    def postings(self, tag: str) -> Tuple[Posting, ...]:
        """The full posting list of ``tag`` (raises for unknown tags).

        The tuple-of-:class:`Posting` view is materialised lazily from the
        backing arrays and cached, so scalar consumers keep their API while
        the arrays remain the single source of truth.
        """
        if tag not in self._lists:
            raise UnknownTagError(tag)
        view = self._posting_views.get(tag)
        if view is None:
            postings = self._lists[tag]
            view = tuple(
                Posting(item_id=int(item_id), frequency=int(frequency))
                for item_id, frequency in zip(postings.item_ids.tolist(),
                                              postings.frequencies.tolist())
            )
            self._posting_views[tag] = view
        return view

    def arrays(self, tag: str) -> PostingList:
        """The array-backed posting list of ``tag`` (empty for unknown tags).

        This is the zero-copy entry point of the vectorized kernels; the
        returned arrays must not be mutated.
        """
        return self._lists.get(tag, _EMPTY_LIST)

    def cursor(self, tag: str) -> PostingListCursor:
        """Sequential cursor over ``tag``'s posting list.

        Unknown tags yield an empty cursor rather than an error: a query may
        legitimately use a tag nobody has employed yet.
        """
        return PostingListCursor(tag, self._lists.get(tag, _EMPTY_LIST))

    def frequency(self, item_id: int, tag: str) -> int:
        """Random-access lookup of an item's frequency for a tag (0 if absent)."""
        return self._frequency.get((tag, item_id), 0)

    def max_frequency(self, tag: str) -> int:
        """Largest frequency on ``tag``'s posting list (0 for unknown tags).

        Because frequency counts distinct endorsers and proximities are at
        most 1, this value also upper-bounds the *social* mass any single
        item can accumulate for the tag; both scoring components are
        normalised by it.
        """
        return self._max_frequency.get(tag, 0)

    def list_length(self, tag: str) -> int:
        """Number of postings for ``tag`` (0 for unknown tags)."""
        return len(self._lists.get(tag, _EMPTY_LIST))

    def num_postings(self) -> int:
        """Total number of postings across all tags."""
        return sum(len(postings) for postings in self._lists.values())

    def iter_all(self) -> Iterator[Tuple[str, Posting]]:
        """Yield ``(tag, posting)`` pairs across the whole index."""
        for tag in self.tags():
            for posting in self.postings(tag):
                yield tag, posting

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the posting lists in bytes."""
        arrays = sum(
            int(postings.item_ids.nbytes + postings.frequencies.nbytes)
            for postings in self._lists.values()
        )
        return arrays + len(self._lists) * 64
