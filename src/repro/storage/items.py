"""Item catalogue.

Items are the objects users tag and queries return: bookmarks, photos,
posts.  The store assigns no meaning to the payload beyond a title and an
optional URL; ranking only ever consults the tagging relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..errors import DuplicateItemError, UnknownItemError


@dataclass(frozen=True)
class Item:
    """One catalogued item.

    Attributes
    ----------
    item_id:
        Dense integer identifier.
    title:
        Human-readable title used by examples and result rendering.
    url:
        Optional source URL (bookmark-style corpora).
    attributes:
        Free-form metadata; never consulted by ranking.
    """

    item_id: int
    title: str = ""
    url: Optional[str] = None
    attributes: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {"item_id": self.item_id, "title": self.title, "url": self.url,
                "attributes": dict(self.attributes)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Item":
        """Rebuild an item from :meth:`to_dict` output."""
        return cls(
            item_id=int(data["item_id"]),
            title=str(data.get("title", "")),
            url=data.get("url"),
            attributes=dict(data.get("attributes", {})),
        )


class ItemStore:
    """In-memory item catalogue keyed by item id."""

    def __init__(self) -> None:
        self._items: Dict[int, Item] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._items

    def add(self, item: Item) -> None:
        """Register an item; re-adding an identical record is a no-op."""
        existing = self._items.get(item.item_id)
        if existing is not None and existing != item:
            raise DuplicateItemError(
                f"item id {item.item_id} already registered with a different payload"
            )
        self._items[item.item_id] = item

    def add_many(self, items: Iterator[Item]) -> None:
        """Register a batch of items."""
        for item in items:
            self.add(item)

    def get(self, item_id: int) -> Item:
        """Return the item with ``item_id`` or raise :class:`UnknownItemError`."""
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItemError(item_id) from None

    def get_or_none(self, item_id: int) -> Optional[Item]:
        """Return the item or ``None`` when absent."""
        return self._items.get(item_id)

    def ensure(self, item_id: int) -> Item:
        """Return the item, creating a placeholder record when absent."""
        if item_id not in self._items:
            self._items[item_id] = Item(item_id=item_id, title=f"item-{item_id}")
        return self._items[item_id]

    def ids(self) -> List[int]:
        """All registered item ids in sorted order."""
        return sorted(self._items)

    def __iter__(self) -> Iterator[Item]:
        for item_id in sorted(self._items):
            yield self._items[item_id]
