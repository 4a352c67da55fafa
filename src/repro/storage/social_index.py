"""Per-tag user → items CSR ("social index").

Frontier-based algorithms walk the seeker's network friend by friend and,
for each visited friend, need the friend's items for every query tag in one
cheap lookup.  The social index stores exactly that access path:

``items_for(user, tag) : tuple(item ids the user endorsed with the tag)``

It is the social counterpart of the inverted index — same data, pivoted the
other way — laid out as one CSR per tag (users ascending, each user's items
ascending), the same arrays an arena maps from disk.

**Live updates** land in a small ``(user, tag) → items`` overlay consulted
before the frozen arrays; :meth:`SocialIndex.compact` folds the overlay back
into fresh arrays (see :meth:`repro.storage.updates.DatasetUpdater.compact`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .tagging import TaggingStore

#: estimated bytes of one overlay entry besides its items: the ``(user,
#: tag)`` key tuple, the row tuple's header and the dict slot.
_OVERLAY_ENTRY_BYTES = 64
#: estimated bytes of one item id held in an overlay row (pointer + int).
_OVERLAY_ITEM_BYTES = 8


def _offsets_from_counts(counts: np.ndarray, length: int) -> np.ndarray:
    """CSR offsets (``length + 1`` entries) of per-row ``counts``."""
    offsets = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _social_rows(tag_ids: np.ndarray, user_ids: np.ndarray,
                 item_ids: np.ndarray, num_tags: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lay ``(tag, user, item)`` triples out as the social CSR.

    Returns ``(order, user_offsets, user_ids, segment_offsets)``.  ``order``
    picks one row per distinct triple, ascending by tag, then user, then
    item — each tag's users ascending and each segment's items ascending,
    the layout :meth:`SocialIndex.items_for` answers from — so
    ``item_ids[order]`` is the item column.  The columns are sorted as
    they are (one ``lexsort``), so any int64 ids work.
    """
    order = np.lexsort((item_ids, user_ids, tag_ids))
    tags = np.asarray(tag_ids)[order]
    users = np.asarray(user_ids)[order]
    items = np.asarray(item_ids)[order]
    new_row = np.ones(order.shape[0], dtype=bool)
    new_row[1:] = (tags[1:] != tags[:-1]) | (users[1:] != users[:-1])
    distinct = new_row.copy()
    distinct[1:] |= items[1:] != items[:-1]
    del tags, users, items
    order = order[distinct]
    starts = np.flatnonzero(new_row[distinct])
    rows = order[starts]
    return (
        order,
        _offsets_from_counts(np.bincount(np.asarray(tag_ids)[rows],
                                         minlength=num_tags), num_tags),
        np.asarray(user_ids)[rows],
        np.append(starts, order.shape[0]),
    )


class _SocialArrays(NamedTuple):
    """Frozen per-tag user → items CSR arrays (one atomically swapped unit)."""

    tag_ids: Dict[str, int]
    user_offsets: np.ndarray
    user_ids: np.ndarray
    segment_offsets: np.ndarray
    item_ids: np.ndarray


class SocialIndex:
    """Per-tag user → items CSR plus a delta overlay of updated rows."""

    def __init__(self, tags: Sequence[str], user_offsets: np.ndarray,
                 user_ids: np.ndarray, segment_offsets: np.ndarray,
                 item_ids: np.ndarray) -> None:
        self._base = _SocialArrays(
            {tag: index for index, tag in enumerate(tags)},
            user_offsets, user_ids, segment_offsets, item_ids)
        self._overlay: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        self._overlay_extra = 0
        self._overlay_items = 0

    @classmethod
    def build(cls, tagging: TaggingStore) -> "SocialIndex":
        """Build the per-tag CSR from a tagging store's action columns."""
        tags = tagging.tags()
        actions = tagging.action_arrays(
            {tag: index for index, tag in enumerate(tags)})
        order, user_offsets, user_ids, segment_offsets = _social_rows(
            actions["tag_ids"], actions["user_ids"], actions["item_ids"],
            len(tags))
        return cls(tags, user_offsets, user_ids, segment_offsets,
                   actions["item_ids"][order])

    def items_for(self, user_id: int, tag: str) -> Tuple[int, ...]:
        """Items ``user_id`` endorsed with ``tag``, ascending (empty when none)."""
        if self._overlay:
            merged = self._overlay.get((user_id, tag))
            if merged is not None:
                return merged
        base = self._base
        tag_index = base.tag_ids.get(tag)
        if tag_index is None:
            return ()
        start = int(base.user_offsets[tag_index])
        end = int(base.user_offsets[tag_index + 1])
        position = start + int(base.user_ids[start:end].searchsorted(user_id))
        if position >= end or int(base.user_ids[position]) != user_id:
            return ()
        row_start = int(base.segment_offsets[position])
        row_end = int(base.segment_offsets[position + 1])
        return tuple(base.item_ids[row_start:row_end].tolist())

    # -- delta overlay -------------------------------------------------- #

    def apply_delta(self, added: Mapping[Tuple[int, str], Sequence[int]]
                    ) -> None:
        """Merge new ``(user, tag) -> [items]`` pairs into the overlay.

        The frozen arrays stay untouched; each touched entry's overlay
        tuple holds the *merged* item set, so a read needs no union pass.
        """
        for (user_id, tag), items in added.items():
            current = self.items_for(user_id, tag)
            merged = tuple(sorted(set(current) | set(items)))
            self._overlay_extra += len(merged) - len(current)
            self._overlay_items += len(merged) \
                - len(self._overlay.get((user_id, tag), ()))
            self._overlay[(user_id, tag)] = merged

    @property
    def overlay_size(self) -> int:
        """Number of ``(user, tag)`` entries pending compaction."""
        return len(self._overlay)

    def stage_compact(self) -> Optional[Tuple[_SocialArrays, int]]:
        """Build the next epoch's arrays without mutating anything.

        Returns ``None`` when the overlay is empty, else ``(arrays,
        folded)`` to hand to :meth:`commit_compact`.  Staging performs all
        the work that can fail (allocation, merging); the commit is then a
        pure attribute swap, which is what gives
        :meth:`~repro.storage.updates.DatasetUpdater.compact` its
        failure atomicity — an exception mid-compaction leaves the old
        epoch fully intact.
        """
        if not self._overlay:
            return None
        base = self._base
        users_per_tag = np.diff(base.user_offsets)
        # A tag survives when it still has a row; an overlay entry keeps its
        # tag in the table even when its row is empty.
        tags = sorted({tag for tag, index in base.tag_ids.items()
                       if users_per_tag[index]}
                      | {tag for _user, tag in self._overlay})
        tag_ids = {tag: index for index, tag in enumerate(tags)}
        remap = np.zeros(users_per_tag.shape[0], dtype=np.int64)
        for tag, index in base.tag_ids.items():
            remap[index] = tag_ids.get(tag, 0)
        # The base CSR expanded back into (tag, user, item) triples, plus the
        # overlay's rows.  Every overlay row is a superset of the base row it
        # shadows (apply_delta merges into the current row), so the union of
        # the two collapses to exactly the merged read.
        row_lengths = np.diff(base.segment_offsets)
        row_tags = np.repeat(remap, users_per_tag)
        overlay_tags: List[int] = []
        overlay_users: List[int] = []
        overlay_items: List[int] = []
        for (user, tag), row in self._overlay.items():
            overlay_tags.extend([tag_ids[tag]] * len(row))
            overlay_users.extend([user] * len(row))
            overlay_items.extend(row)
        items = np.concatenate([base.item_ids,
                                np.array(overlay_items, dtype=np.int64)])
        order, user_offsets, users, segment_offsets = _social_rows(
            np.concatenate([np.repeat(row_tags, row_lengths),
                            np.array(overlay_tags, dtype=np.int64)]),
            np.concatenate([np.repeat(base.user_ids, row_lengths),
                            np.array(overlay_users, dtype=np.int64)]),
            items, len(tags))
        arrays = _SocialArrays(tag_ids, user_offsets, users, segment_offsets,
                               items[order])
        return arrays, len(self._overlay)

    def commit_compact(self, staged: Optional[Tuple[_SocialArrays, int]]
                       ) -> int:
        """Install staged arrays; pure attribute swaps that cannot raise.

        A merged read and a compacted read are value-identical, so the
        single-attribute swap of the frozen-array holder is safe against
        concurrent lock-free readers; the overlay is cleared only after the
        new arrays are in place (a reader seeing both gets the same items).
        Returns the number of overlay entries folded.
        """
        if staged is None:
            return 0
        arrays, folded = staged
        self._base = arrays
        self._overlay = {}
        self._overlay_extra = 0
        self._overlay_items = 0
        return folded

    def compact(self) -> int:
        """Fold the overlay into fresh arrays (stage + commit in one step)."""
        return self.commit_compact(self.stage_compact())

    # -- sizes ---------------------------------------------------------- #

    def num_entries(self) -> int:
        """Total number of distinct ``(user, tag, item)`` entries."""
        return int(self._base.item_ids.shape[0]) + self._overlay_extra

    def memory_bytes(self) -> int:
        """The CSR arrays' bytes plus an estimate of the overlay's."""
        return sum(int(array.nbytes) for array in self._base[1:]) \
            + len(self._overlay) * _OVERLAY_ENTRY_BYTES \
            + self._overlay_items * _OVERLAY_ITEM_BYTES
