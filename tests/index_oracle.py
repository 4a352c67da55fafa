"""Reference derived indexes: the dict builds the array forms replaced.

``InvertedIndex`` now reads its posting lists off the endorser index's
bundles (one ``lexsort`` per tag) and answers ``frequency`` by binary
search; ``SocialIndex`` is a per-tag user → items CSR built from the action
columns with one ``lexsort``.  This module keeps the dict builds they
replaced — one ``tag_frequency`` call per ``(tag, item)`` and one profile
dict per user — verbatim, as the exact-equality oracle of
``tests/property/test_index_oracle.py`` and of the index unit tests:

* :class:`OracleInvertedIndex` — ``tag -> [(item, frequency)]`` sorted by
  ``(-frequency, item_id)``, plus the ``(tag, item) -> frequency`` dict;
* :class:`OracleSocialIndex` — ``user -> tag -> tuple(sorted items)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import UnknownTagError
from repro.storage.inverted_index import Posting
from tagging_oracle import TaggingStore


class OracleInvertedIndex:
    """Tag → frequency-ordered posting list, built by the dict loop."""

    def __init__(self) -> None:
        self._lists: Dict[str, List[Tuple[int, int]]] = {}
        self._max_frequency: Dict[str, int] = {}
        self._frequency: Dict[Tuple[str, int], int] = {}

    @classmethod
    def build(cls, tagging: TaggingStore) -> "OracleInvertedIndex":
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
            index._lists[tag] = entries
            index._max_frequency[tag] = entries[0][1] if entries else 0
            for item_id, frequency in entries:
                index._frequency[(tag, item_id)] = frequency
        return index

    def tags(self) -> List[str]:
        """All indexed tags in sorted order."""
        return sorted(self._lists)

    def item_ids(self, tag: str) -> List[int]:
        """``tag``'s posting-list item ids, in list order."""
        return [item_id for item_id, _ in self._lists.get(tag, [])]

    def frequencies(self, tag: str) -> List[int]:
        """``tag``'s posting-list frequencies, in list order."""
        return [frequency for _, frequency in self._lists.get(tag, [])]

    def postings(self, tag: str) -> Tuple[Posting, ...]:
        """The full posting list of ``tag`` (raises for unknown tags)."""
        if tag not in self._lists:
            raise UnknownTagError(tag)
        return tuple(Posting(item_id=item_id, frequency=frequency)
                     for item_id, frequency in self._lists[tag])

    def frequency(self, item_id: int, tag: str) -> int:
        """Random-access lookup of an item's frequency for a tag (0 if absent)."""
        return self._frequency.get((tag, item_id), 0)

    def max_frequency(self, tag: str) -> int:
        """Largest frequency on ``tag``'s posting list (0 for unknown tags)."""
        return self._max_frequency.get(tag, 0)

    def iter_all(self) -> Iterator[Tuple[str, Posting]]:
        """Yield ``(tag, posting)`` pairs across the whole index."""
        for tag in self.tags():
            for posting in self.postings(tag):
                yield tag, posting


class OracleSocialIndex:
    """User → tag → items profiles, built by the dict loop."""

    def __init__(self) -> None:
        self._profiles: Dict[int, Dict[str, Tuple[int, ...]]] = {}

    @classmethod
    def build(cls, tagging: TaggingStore) -> "OracleSocialIndex":
        """Build the per-user profiles from a tagging store."""
        index = cls()
        staging: Dict[int, Dict[str, List[int]]] = {}
        for action in tagging:
            user_profile = staging.setdefault(action.user_id, {})
            user_profile.setdefault(action.tag, []).append(action.item_id)
        for user_id, tags in staging.items():
            index._profiles[user_id] = {
                tag: tuple(sorted(set(items))) for tag, items in tags.items()
            }
        return index

    def users(self) -> List[int]:
        """All users that have a non-empty profile."""
        return sorted(self._profiles)

    def profile(self, user_id: int) -> Dict[str, Tuple[int, ...]]:
        """The user's full profile (empty dict for inactive users)."""
        return dict(self._profiles.get(user_id, {}))

    def items_for(self, user_id: int, tag: str) -> Tuple[int, ...]:
        """Items ``user_id`` endorsed with ``tag`` (empty tuple when none)."""
        return self._profiles.get(user_id, {}).get(tag, ())

    def tags_for(self, user_id: int) -> Tuple[str, ...]:
        """Tags the user has employed, sorted."""
        return tuple(sorted(self._profiles.get(user_id, {})))

    def num_entries(self) -> int:
        """Total number of (user, tag, item) entries."""
        return sum(
            len(items)
            for profile in self._profiles.values()
            for items in profile.values()
        )

    def iter_entries(self) -> Iterator[Tuple[int, str, int]]:
        """Yield every ``(user, tag, item)`` entry."""
        for user_id in self.users():
            for tag, items in sorted(self._profiles[user_id].items()):
                for item_id in items:
                    yield user_id, tag, item_id
