"""Access sources consumed by the interleaving algorithms.

Threshold-style processing draws from two kinds of sorted sources:

* :class:`TextualSource` — one per query tag; wraps the tag's
  frequency-ordered posting list and exposes the frequency of the next
  unread posting as the textual upper bound.
* :class:`SocialFrontier` — one per query; wraps the proximity measure's
  ranked stream of friends and exposes the proximity of the next unvisited
  friend as the social upper bound.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ...proximity.base import ProximityMeasure
from ...storage.inverted_index import InvertedIndex, Posting, PostingListCursor


class TextualSource:
    """Sequential access to one tag's frequency-ordered posting list."""

    __slots__ = ("_tag", "_cursor")

    def __init__(self, index: InvertedIndex, tag: str) -> None:
        self._tag = tag
        self._cursor: PostingListCursor = index.cursor(tag)

    @property
    def tag(self) -> str:
        """The tag this source serves."""
        return self._tag

    def exhausted(self) -> bool:
        """Whether the posting list has been fully read."""
        return self._cursor.exhausted()

    def next_frequency(self) -> int:
        """Frequency of the next unread posting (0 when exhausted)."""
        return self._cursor.peek_frequency()

    def read(self) -> Optional[Posting]:
        """Read the next posting, or ``None`` when exhausted."""
        return self._cursor.next()

    def consumed(self) -> int:
        """Number of postings read so far."""
        return self._cursor.position


class SocialFrontier:
    """Best-first stream of the seeker's friends in decreasing proximity.

    The underlying ranked stream is opened *lazily*: when the proximity
    measure can answer :meth:`~repro.proximity.base.ProximityMeasure.frontier_bound`
    cheaply (a warm cache entry), the peeks that
    drive termination tests — :meth:`next_proximity` / :meth:`exhausted` —
    are served from that bound, and the stream (which for some measures
    materialises and sorts the full proximity vector) is only built once a
    friend is actually visited.  ``frontier_bound`` is contractually equal
    to the first streamed value, so the deferred path takes exactly the
    same termination decisions as the eager one.
    """

    __slots__ = ("_proximity", "_seeker", "_stream", "_peeked", "_exhausted",
                 "_visited", "_bound")

    def __init__(self, proximity: ProximityMeasure, seeker: int) -> None:
        self._proximity = proximity
        self._seeker = seeker
        self._stream: Optional[Iterator[Tuple[int, float]]] = None
        self._peeked: Optional[Tuple[int, float]] = None
        self._exhausted = False
        self._visited = 0
        self._bound: Optional[float] = proximity.frontier_bound(seeker)

    def _fill(self) -> None:
        if self._peeked is None and not self._exhausted:
            if self._stream is None:
                self._stream = self._proximity.iter_ranked(self._seeker)
            try:
                self._peeked = next(self._stream)
            except StopIteration:
                self._exhausted = True

    def exhausted(self) -> bool:
        """Whether every reachable friend has been visited."""
        if self._stream is None and self._bound is not None:
            return self._bound <= 0.0
        self._fill()
        return self._exhausted and self._peeked is None

    def next_proximity(self) -> float:
        """Proximity of the next unvisited friend (0.0 when exhausted).

        This value upper-bounds the proximity of *every* friend not yet
        visited, because the stream is non-increasing.
        """
        if self._stream is None and self._bound is not None:
            return self._bound if self._bound > 0.0 else 0.0
        self._fill()
        if self._peeked is None:
            return 0.0
        return self._peeked[1]

    def pop(self) -> Optional[Tuple[int, float]]:
        """Visit the next friend, returning ``(user, proximity)`` or ``None``."""
        self._fill()
        if self._peeked is None:
            return None
        entry = self._peeked
        self._peeked = None
        self._visited += 1
        return entry

    @property
    def visited(self) -> int:
        """Number of friends visited so far."""
        return self._visited


def build_textual_sources(index: InvertedIndex, tags: Tuple[str, ...]
                          ) -> Dict[str, TextualSource]:
    """One :class:`TextualSource` per query tag."""
    return {tag: TextualSource(index, tag) for tag in tags}


def next_frequencies(sources: Dict[str, TextualSource]) -> Dict[str, int]:
    """Snapshot of every tag's next unread frequency (the textual bounds)."""
    return {tag: source.next_frequency() for tag, source in sources.items()}
