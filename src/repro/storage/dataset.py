"""The dataset bundle: social graph + stores + indexes.

A :class:`Dataset` is the unit every algorithm, example and benchmark
operates on.  It owns the social graph, the user/item catalogues, the raw
tagging relation and the two derived indexes (inverted and social), and it
guarantees they are mutually consistent because they are always built
together from the same tagging store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..errors import StorageError
from ..graph import SocialGraph
from .endorser_index import EndorserIndex
from .inverted_index import InvertedIndex
from .items import Item, ItemStore
from .social_index import SocialIndex
from .tagging import TaggingAction, TaggingStore
from .users import User, UserStore


@dataclass
class Dataset:
    """A complete social-tagging corpus ready for querying.

    Use :meth:`Dataset.build` instead of the raw constructor so the derived
    indexes are always consistent with the tagging store.
    """

    name: str
    graph: SocialGraph
    users: UserStore
    items: ItemStore
    tagging: TaggingStore
    inverted_index: InvertedIndex
    social_index: SocialIndex
    endorser_index: EndorserIndex
    holdout: Optional[TaggingStore] = field(default=None)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, graph: SocialGraph, actions: Iterable[TaggingAction],
              name: str = "dataset",
              users: Optional[UserStore] = None,
              items: Optional[ItemStore] = None,
              holdout: Optional[TaggingStore] = None) -> "Dataset":
        """Assemble a dataset from a graph and a stream of tagging actions.

        Actions referencing users outside the graph are rejected, because a
        tagger who is not a node can never be reached by social expansion
        and would silently distort exact scores.
        """
        tagging = TaggingStore()
        user_store = users or UserStore.with_placeholder_users(graph.num_users)
        item_store = items or ItemStore()
        for action in actions:
            if not 0 <= action.user_id < graph.num_users:
                raise StorageError(
                    f"tagging action references user {action.user_id}, but the "
                    f"graph only has {graph.num_users} users"
                )
            tagging.add(action)
            item_store.ensure(action.item_id)
            user_store.ensure(action.user_id)
        return cls._from_tagging(graph, tagging, name=name, users=user_store,
                                 items=item_store, holdout=holdout)

    @classmethod
    def _from_tagging(cls, graph: SocialGraph, tagging: TaggingStore, name: str,
                      users: UserStore, items: ItemStore,
                      holdout: Optional[TaggingStore] = None) -> "Dataset":
        return cls(
            name=name,
            graph=graph,
            users=users,
            items=items,
            tagging=tagging,
            inverted_index=InvertedIndex.build(tagging),
            social_index=SocialIndex.build(tagging),
            endorser_index=EndorserIndex.build(tagging),
            holdout=holdout,
        )

    @classmethod
    def from_arena(cls, path) -> "Dataset":
        """Open a memory-mapped index arena (``repro generate`` / ``build-arena``).

        All hot structures come back as zero-copy, read-only ``np.ndarray``
        views of the mapped file in their query-ready layout, so cold start skips the index rebuild
        :meth:`build` pays (see :mod:`repro.storage.arena`).
        """
        from .arena import load_dataset_from_arena

        return load_dataset_from_arena(path)

    def to_arena(self, path):
        """Serialise this dataset into an arena file."""
        from .arena import build_arena

        return build_arena(self, path)

    def with_holdout(self, fraction: float, seed: int = 0) -> "Dataset":
        """Return a copy whose index excludes a per-user holdout slice.

        The withheld actions become the relevance ground truth for quality
        experiments (see :mod:`repro.eval`).
        """
        train, holdout = self.tagging.split_holdout(fraction, seed=seed)
        return Dataset._from_tagging(
            self.graph, train, name=self.name, users=self.users, items=self.items,
            holdout=holdout,
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    @property
    def num_users(self) -> int:
        """Number of users (graph nodes)."""
        return self.graph.num_users

    @property
    def num_items(self) -> int:
        """Number of catalogued items."""
        return len(self.items)

    @property
    def num_actions(self) -> int:
        """Number of distinct tagging actions in the indexed portion."""
        return len(self.tagging)

    @property
    def num_tags(self) -> int:
        """Number of distinct tags."""
        return len(self.tagging.tags())

    def tags(self) -> List[str]:
        """All distinct tags in sorted order."""
        return self.tagging.tags()

    def active_users(self) -> List[int]:
        """Users with at least one tagging action."""
        return self.tagging.users()

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Dataset {self.name!r}: {self.num_users} users, "
            f"{self.graph.num_edges} edges, {self.num_items} items, "
            f"{self.num_tags} tags, {self.num_actions} actions"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset(name={self.name!r}, users={self.num_users}, actions={self.num_actions})"
