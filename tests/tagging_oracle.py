"""The dict-indexed tagging store, kept as a test oracle.

This is the in-memory ``TaggingStore`` the library used before the action
log moved into int64 columns: the raw actions plus seven hash indexes,
each updated action by action.  It answers every read by the obvious
dict lookup, so the property tests compare the column store (and the
endorser bundles that now answer per-``(item, tag)`` reads) against it.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.storage.tagging import TaggingAction


class TaggingStore:
    """In-memory store of tagging actions with secondary hash indexes."""

    def __init__(self) -> None:
        self._actions: List[TaggingAction] = []
        self._seen: Set[Tuple[int, int, str]] = set()
        # Taggers are kept as ascending lists (duplicates are filtered by
        # ``_seen`` before insertion): scoring iterates them in sorted order
        # on every exact-score call, and the endorser index copies them into
        # its CSR segments verbatim, so sorting once at insert time beats
        # re-sorting a set copy per lookup.
        self._taggers_by_item_tag: Dict[Tuple[int, str], List[int]] = {}
        self._items_by_user_tag: Dict[Tuple[int, str], Set[int]] = {}
        self._items_by_user: Dict[int, Set[int]] = {}
        self._tags_by_user: Dict[int, Dict[str, int]] = {}
        self._items_by_tag: Dict[str, Set[int]] = {}
        self._tag_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, action: TaggingAction) -> bool:
        """Record a tagging action.

        Duplicate ``(user, item, tag)`` triples are ignored (a user endorsing
        the same item with the same tag twice carries no extra signal).
        Returns ``True`` when the action was new.
        """
        key = (action.user_id, action.item_id, action.tag)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._actions.append(action)
        insort(self._taggers_by_item_tag.setdefault((action.item_id, action.tag), []),
               action.user_id)
        self._items_by_user_tag.setdefault((action.user_id, action.tag), set()).add(action.item_id)
        self._items_by_user.setdefault(action.user_id, set()).add(action.item_id)
        user_tags = self._tags_by_user.setdefault(action.user_id, {})
        user_tags[action.tag] = user_tags.get(action.tag, 0) + 1
        self._items_by_tag.setdefault(action.tag, set()).add(action.item_id)
        self._tag_counts[action.tag] = self._tag_counts.get(action.tag, 0) + 1
        return True

    def add_many(self, actions: Iterable[TaggingAction]) -> int:
        """Record a batch of actions; returns the number actually added."""
        return sum(1 for action in actions if self.add(action))

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._actions)

    def actions(self) -> List[TaggingAction]:
        """All stored actions in insertion order (copy)."""
        return list(self._actions)

    def __iter__(self) -> Iterator[TaggingAction]:
        return iter(self._actions)

    def action_arrays(self, tag_ids: Mapping[str, int]
                      ) -> Dict[str, np.ndarray]:
        """The actions as int64 columns in insertion order.

        ``user_ids`` / ``item_ids`` / ``tag_ids`` / ``timestamps``, each tag
        interned through ``tag_ids`` — the arena's ``actions.*`` section.
        """
        actions = self._actions
        return {
            "user_ids": np.array([a.user_id for a in actions], dtype=np.int64),
            "item_ids": np.array([a.item_id for a in actions], dtype=np.int64),
            "tag_ids": np.array([tag_ids[a.tag] for a in actions], dtype=np.int64),
            "timestamps": np.array([a.timestamp for a in actions], dtype=np.int64),
        }

    def contains(self, user_id: int, item_id: int, tag: str) -> bool:
        """Whether the exact triple has been recorded."""
        return (user_id, item_id, tag) in self._seen

    def taggers(self, item_id: int, tag: str) -> FrozenSet[int]:
        """Users who endorsed ``item_id`` with ``tag``."""
        return frozenset(self._taggers_by_item_tag.get((item_id, tag), ()))

    def taggers_sorted(self, item_id: int, tag: str) -> Sequence[int]:
        """Taggers in ascending id order, with no per-call copy.

        The returned sequence is the store's own list and must not be
        mutated; it is the zero-allocation path the scorer and the endorser
        index build on.
        """
        return self._taggers_by_item_tag.get((item_id, tag), ())

    def tag_frequency(self, item_id: int, tag: str) -> int:
        """Number of distinct users who endorsed ``item_id`` with ``tag``."""
        return len(self._taggers_by_item_tag.get((item_id, tag), ()))

    def items_for_user_tag(self, user_id: int, tag: str) -> FrozenSet[int]:
        """Items ``user_id`` endorsed with ``tag``."""
        return frozenset(self._items_by_user_tag.get((user_id, tag), frozenset()))

    def items_for_user(self, user_id: int) -> FrozenSet[int]:
        """All items ``user_id`` ever endorsed (any tag)."""
        return frozenset(self._items_by_user.get(user_id, frozenset()))

    def tags_for_user(self, user_id: int) -> Dict[str, int]:
        """The user's tag profile: tag → number of actions using it."""
        return dict(self._tags_by_user.get(user_id, {}))

    def items_for_tag(self, tag: str) -> FrozenSet[int]:
        """All items endorsed with ``tag`` by anyone."""
        return frozenset(self._items_by_tag.get(tag, frozenset()))

    def tags(self) -> List[str]:
        """All distinct tags in sorted order."""
        return sorted(self._tag_counts)

    def tag_popularity(self) -> Dict[str, int]:
        """Tag → total number of actions using the tag."""
        return dict(self._tag_counts)

    def users(self) -> List[int]:
        """All user ids that performed at least one action."""
        return sorted(self._items_by_user)

    def items(self) -> List[int]:
        """All item ids that received at least one action."""
        items: Set[int] = set()
        for item_set in self._items_by_tag.values():
            items.update(item_set)
        return sorted(items)

    def activity(self, user_id: int) -> int:
        """Number of actions performed by ``user_id``."""
        return sum(self._tags_by_user.get(user_id, {}).values())

    def action_histograms(self, num_users: int
                          ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(tag_table, activity, popularity)`` for workload sampling.

        ``tag_table`` is the sorted distinct tags, ``activity[user_id]``
        the user's action count (length ``num_users``; out-of-range users
        are dropped) and ``popularity`` the per-tag action counts aligned
        with ``tag_table``.  The histogram contract shared with
        :meth:`repro.storage.tagging.TaggingStore.action_histograms`:
        equal actions produce equal arrays, so
        :func:`~repro.workload.sampler.sample_workload` draws identical
        workloads from either store.
        """
        tag_table = sorted(self._tag_counts)
        activity = np.zeros(num_users, dtype=np.float64)
        for user_id, profile in self._tags_by_user.items():
            if 0 <= user_id < num_users:
                activity[user_id] = float(sum(profile.values()))
        popularity = np.array([self._tag_counts[tag] for tag in tag_table],
                              dtype=np.float64)
        return tag_table, activity, popularity

    def num_distinct_triples(self) -> int:
        """Number of distinct ``(user, item, tag)`` triples stored."""
        return len(self._seen)

    def filter(self, predicate) -> "TaggingStore":
        """Return a new store containing only the actions matching ``predicate``."""
        filtered = TaggingStore()
        filtered.add_many(action for action in self._actions if predicate(action))
        return filtered

    def split_holdout(self, fraction: float, seed: int = 0
                      ) -> Tuple["TaggingStore", "TaggingStore"]:
        """Split into (train, holdout) stores per user.

        For every user, the *last* ``fraction`` of their actions (by
        timestamp, then insertion order) is withheld.  The holdout is the
        relevance ground truth for quality experiments: items the seeker
        will tag in the future are what a good ranking should surface today.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        by_user: Dict[int, List[TaggingAction]] = {}
        for index, action in enumerate(self._actions):
            by_user.setdefault(action.user_id, []).append(action)
        train = TaggingStore()
        holdout = TaggingStore()
        for user_id in sorted(by_user):
            actions = sorted(by_user[user_id], key=lambda a: (a.timestamp, a.item_id, a.tag))
            cut = len(actions) - int(len(actions) * fraction)
            cut = max(1, cut) if actions else 0
            train.add_many(actions[:cut])
            holdout.add_many(actions[cut:])
        return train, holdout
