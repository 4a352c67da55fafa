"""The tagging relation ``Tagged(user, item, tag)``.

This is the central fact table of the system: a row means "user *u*
endorsed item *i* with tag *t*".  :class:`TaggingStore` keeps it as an
append-only action log in four int64 columns — ``user_ids``, ``item_ids``,
``tag_ids`` (interned through a small tag table) and ``timestamps`` —
whether the columns were built in memory or mapped from an arena.  Live
updates append to a small tail; :meth:`TaggingStore.compact` folds the tail
into fresh columns.

The store holds no per-``(item, tag)`` index.  "Who tagged item *i* with
tag *t*" is the :class:`~repro.storage.endorser_index.EndorserIndex`'s
relation, which incremental maintenance keeps current; the store's own
reads are per user (profiles, holdout splits, workload histograms) and run
as numpy masks over the columns.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from .endorser_index import EndorserIndex

#: ``(user_ids, item_ids, tag_ids, timestamps)``, aligned int64 arrays.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, order=True)
class TaggingAction:
    """One tagging action ``(user, item, tag)`` with a logical timestamp."""

    user_id: int
    item_id: int
    tag: str
    timestamp: int = 0

    def __post_init__(self) -> None:
        # Intern the tag: a dataset repeats the same few thousand tag
        # strings across millions of actions and index keys, so interning
        # collapses them to one object each — less allocation churn and
        # pointer-equality fast paths in every per-query dict lookup.
        object.__setattr__(self, "tag", sys.intern(self.tag))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "user_id": self.user_id,
            "item_id": self.item_id,
            "tag": self.tag,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaggingAction":
        """Rebuild an action from :meth:`to_dict` output."""
        return cls(
            user_id=int(data["user_id"]),
            item_id=int(data["item_id"]),
            tag=str(data["tag"]),
            timestamp=int(data.get("timestamp", 0)),
        )


def _string_order(table: Sequence[str]) -> np.ndarray:
    """Tag ids of ``table`` in ascending tag-string order."""
    return np.array(sorted(range(len(table)), key=table.__getitem__),
                    dtype=np.int64)


def _new_rows(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows of lexsorted ``columns`` that start a new key."""
    fresh = np.zeros(columns[0].shape[0], dtype=bool)
    fresh[:1] = True
    for column in columns:
        fresh[1:] |= column[1:] != column[:-1]
    return fresh


class TaggingStore:
    """The deduplicated action log as int64 columns plus an append tail.

    ``tag_table[tag_ids[r]]`` is row *r*'s tag; the table holds exactly the
    tags some row uses (unused entries are dropped on construction), and a
    tag first seen by :meth:`add` is appended to it.  The frozen columns
    are never written; :meth:`add` appends to the tail, and
    :meth:`stage_compact` / :meth:`commit_compact` fold the tail into new
    frozen columns.  One lock serialises the tail, the tag table and the
    epoch swap.

    ``endorsers`` is the dataset's live :class:`EndorserIndex`, bound by
    the :class:`~repro.storage.dataset.Dataset` that owns the store:
    :meth:`contains` asks it about the frozen rows, and compaction refuses
    to run when it does not reflect the tail.  An unbound store (a holdout
    split) scans its own columns instead.
    """

    def __init__(self, tag_table: Sequence[str], user_ids: np.ndarray,
                 item_ids: np.ndarray, tag_ids: np.ndarray,
                 timestamps: np.ndarray,
                 endorsers: Optional["EndorserIndex"] = None) -> None:
        table = [sys.intern(str(tag)) for tag in tag_table]
        used = np.bincount(tag_ids, minlength=len(table)) > 0
        if not used.all():
            tag_ids = (np.cumsum(used) - 1)[tag_ids]
            table = [tag for tag, keep in zip(table, used) if keep]
        self._table = table  # guarded-by: _lock
        self._tag_ids = {tag: index for index, tag in enumerate(table)}  # guarded-by: _lock
        self._frozen: Columns = (user_ids, item_ids, tag_ids, timestamps)  # guarded-by: _lock
        # Rows user / item / tag / timestamp; columns [0, _tail_len) are live.
        self._tail = np.zeros((4, 0), dtype=np.int64)  # guarded-by: _lock
        self._tail_len = 0  # guarded-by: _lock
        self._endorsers = endorsers
        self._lock = threading.Lock()

    @classmethod
    def from_actions(cls, actions: Sequence[TaggingAction]) -> "TaggingStore":
        """Columns of ``actions`` in order, keeping each triple's first row.

        Duplicate ``(user, item, tag)`` triples are found with one stable
        ``lexsort`` and a neighbour compare, so any int64 id works and the
        surviving rows keep insertion order.
        """
        count = len(actions)
        interned: Dict[str, int] = {}
        columns = (
            np.fromiter((a.user_id for a in actions), dtype=np.int64, count=count),
            np.fromiter((a.item_id for a in actions), dtype=np.int64, count=count),
            np.fromiter((interned.setdefault(a.tag, len(interned))
                         for a in actions), dtype=np.int64, count=count),
            np.fromiter((a.timestamp for a in actions), dtype=np.int64, count=count),
        )
        users, items, tags, _ = columns
        order = np.lexsort((tags, items, users))
        first = _new_rows(users[order], items[order], tags[order])
        if not first.all():
            keep = np.sort(order[first])
            columns = tuple(column[keep] for column in columns)
        return cls(list(interned), *columns)

    def bind(self, endorsers: "EndorserIndex") -> None:
        """Attach the live endorser index built from these columns."""
        self._endorsers = endorsers

    # ------------------------------------------------------------------ #
    # Mutation: the append tail
    # ------------------------------------------------------------------ #

    def add(self, action: TaggingAction) -> bool:
        """Record a tagging action.

        Duplicate ``(user, item, tag)`` triples are ignored (a user endorsing
        the same item with the same tag twice carries no extra signal).
        Returns ``True`` when the action was new.
        """
        with self._lock:
            if self._contains(action.user_id, action.item_id, action.tag):
                return False
            tag_id = self._tag_ids.get(action.tag)
            if tag_id is None:
                tag_id = self._tag_ids[action.tag] = len(self._table)
                self._table.append(action.tag)
            length = self._tail_len
            if length == self._tail.shape[1]:
                grown = np.zeros((4, max(64, 2 * length)), dtype=np.int64)
                grown[:, :length] = self._tail[:, :length]
                self._tail = grown
            self._tail[:, length] = (action.user_id, action.item_id, tag_id,
                                     action.timestamp)
            self._tail_len = length + 1
            return True

    @property
    def delta_size(self) -> int:
        """Number of tail actions pending compaction."""
        return self._tail_len

    def stage_compact(self) -> Optional[Tuple[Columns, int]]:
        """Build the next frozen columns without mutating anything.

        Returns ``None`` when the tail is empty, else ``(columns, folded)``
        for :meth:`commit_compact`.  Validation and allocation happen here,
        so an exception leaves the store on its old epoch.  Stage and
        commit must run under the same writer lock (the updater's mutate
        lock) so no add lands between them.
        """
        with self._lock:
            folded = self._tail_len
            if not folded:
                return None
            total = int(self._frozen[0].shape[0]) + folded
            if self._endorsers is not None \
                    and self._endorsers.num_entries() != total:
                raise StorageError(
                    "refusing to compact the tagging store: the endorser "
                    "index does not reflect the tail (mutations must go "
                    "through DatasetUpdater)")
            return self._columns(), folded

    def commit_compact(self, staged: Optional[Tuple[Columns, int]]) -> int:
        """Install staged columns and empty the tail; cannot raise.

        Returns the number of actions folded.
        """
        if staged is None:
            return 0
        columns, folded = staged
        with self._lock:
            self._frozen = columns
            self._tail = np.zeros((4, 0), dtype=np.int64)
            self._tail_len = 0
        return folded

    def compact(self) -> int:
        """Fold the tail into fresh columns (stage + commit in one step)."""
        return self.commit_compact(self.stage_compact())

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def _columns(self) -> Columns:  # lock-held: _lock
        """The frozen columns followed by the tail (copies only if a tail)."""
        if not self._tail_len:
            return self._frozen
        tail = self._tail[:, :self._tail_len]
        users, items, tags, stamps = (np.concatenate([frozen, row])
                                      for frozen, row in zip(self._frozen, tail))
        return users, items, tags, stamps

    def _snapshot(self) -> Tuple[List[str], Columns]:
        with self._lock:
            return list(self._table), self._columns()

    def __len__(self) -> int:
        with self._lock:
            return int(self._frozen[0].shape[0]) + self._tail_len

    def contains(self, user_id: int, item_id: int, tag: str) -> bool:
        """Whether the exact triple has been recorded."""
        with self._lock:
            return self._contains(user_id, item_id, tag)

    def _contains(self, user_id: int, item_id: int, tag: str) -> bool:  # lock-held: _lock
        tag_id = self._tag_ids.get(tag)
        if tag_id is None:
            return False
        if self._endorsers is None:
            users, items, tags, _ = self._columns()
        else:
            # The bound endorser index holds every frozen row; rows added
            # since the last compaction are (also) in the tail.
            bundle = self._endorsers.for_tag(tag)
            if bundle is not None:
                segment = bundle.taggers_of(item_id)
                position = int(np.searchsorted(segment, user_id))
                if position < segment.shape[0] \
                        and int(segment[position]) == user_id:
                    return True
            users, items, tags, _ = self._tail[:, :self._tail_len]
        return bool(np.any((users == user_id) & (items == item_id)
                           & (tags == tag_id)))

    def actions(self) -> List[TaggingAction]:
        """All stored actions in insertion order (fresh objects)."""
        table, (users, items, tags, stamps) = self._snapshot()
        return [TaggingAction(user_id=user, item_id=item, tag=table[tag],
                              timestamp=stamp)
                for user, item, tag, stamp in zip(
                    users.tolist(), items.tolist(), tags.tolist(),
                    stamps.tolist())]

    def action_arrays(self, tag_ids: Mapping[str, int]
                      ) -> Dict[str, np.ndarray]:
        """The actions as int64 columns in insertion order.

        ``user_ids`` / ``item_ids`` / ``tag_ids`` / ``timestamps``, each tag
        re-interned through ``tag_ids`` — the arena's ``actions.*`` section.
        The arrays may be the store's own frozen columns: do not write them.
        """
        table, (users, items, tags, stamps) = self._snapshot()
        remap = np.array([tag_ids[tag] for tag in table], dtype=np.int64)
        return {"user_ids": users, "item_ids": items, "tag_ids": remap[tags],
                "timestamps": stamps}

    def tags(self) -> List[str]:
        """All distinct tags in sorted order."""
        with self._lock:
            return sorted(self._table)

    def users(self) -> List[int]:
        """All user ids that performed at least one action, ascending."""
        _, (users, _, _, _) = self._snapshot()
        return np.unique(users).tolist()

    def items_for_user(self, user_id: int) -> FrozenSet[int]:
        """All items ``user_id`` ever endorsed (any tag)."""
        _, (users, items, _, _) = self._snapshot()
        return frozenset(items[users == user_id].tolist())

    def items_for_user_tag(self, user_id: int, tag: str) -> FrozenSet[int]:
        """Items ``user_id`` endorsed with ``tag``."""
        with self._lock:
            tag_id = self._tag_ids.get(tag)
            users, items, tags, _ = self._columns()
        if tag_id is None:
            return frozenset()
        return frozenset(items[(users == user_id) & (tags == tag_id)].tolist())

    def tags_for_user(self, user_id: int) -> Dict[str, int]:
        """The user's tag profile: tag → number of actions using it."""
        table, (users, _, tags, _) = self._snapshot()
        counts = np.bincount(tags[users == user_id], minlength=len(table))
        return {table[index]: int(counts[index])
                for index in np.flatnonzero(counts)}

    def action_histograms(self, num_users: int
                          ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(tag_table, activity, popularity)`` for workload sampling.

        ``tag_table`` is the sorted distinct tags, ``activity[user_id]``
        the user's action count (length ``num_users``; out-of-range users
        are dropped) and ``popularity`` the per-tag action counts aligned
        with ``tag_table``, both ``float64``: two ``np.bincount`` passes
        over the columns, so equal actions produce equal arrays and
        :func:`~repro.workload.sampler.sample_workload` draws identical
        workloads from any dataset holding them.
        """
        table, (users, _, tags, _) = self._snapshot()
        in_range = (users >= 0) & (users < num_users)
        activity = np.bincount(users[in_range],
                               minlength=num_users).astype(np.float64)
        order = _string_order(table)
        popularity = np.bincount(tags, minlength=len(table))[order]
        return ([table[index] for index in order], activity,
                popularity.astype(np.float64))

    def split_holdout(self, fraction: float, seed: int = 0
                      ) -> Tuple["TaggingStore", "TaggingStore"]:
        """Split into (train, holdout) stores per user.

        For every user, the *last* ``fraction`` of their actions (by
        timestamp, then item id, then tag string) is withheld; every user
        keeps at least one action.  Both stores list users ascending, each
        user's rows in that order.  The holdout is the relevance ground
        truth for quality experiments: items the seeker will tag in the
        future are what a good ranking should surface today.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        table, columns = self._snapshot()
        users, items, tags, stamps = columns
        rank = np.argsort(_string_order(table))
        order = np.lexsort((rank[tags], items, stamps, users))
        starts = np.flatnonzero(_new_rows(users[order]))
        sizes = np.diff(np.append(starts, order.shape[0]))
        kept = np.maximum(sizes - (sizes * fraction).astype(np.int64), 1)
        rank_in_user = np.arange(order.shape[0]) - np.repeat(starts, sizes)
        train = rank_in_user < np.repeat(kept, sizes)
        return (TaggingStore(table, *(column[order[train]] for column in columns)),
                TaggingStore(table, *(column[order[~train]] for column in columns)))
