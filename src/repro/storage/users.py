"""User catalogue.

Users are identified by the same dense integer ids the social graph uses;
this store attaches display metadata and activity summaries to those ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..errors import UnknownUserError


@dataclass(frozen=True)
class User:
    """One user profile record.

    Attributes
    ----------
    user_id:
        Dense integer identifier matching the social-graph node id.
    name:
        Display name used by examples.
    attributes:
        Free-form metadata; never consulted by ranking.
    """

    user_id: int
    name: str = ""
    attributes: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {"user_id": self.user_id, "name": self.name,
                "attributes": dict(self.attributes)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "User":
        """Rebuild a user from :meth:`to_dict` output."""
        return cls(
            user_id=int(data["user_id"]),
            name=str(data.get("name", "")),
            attributes=dict(data.get("attributes", {})),
        )


class UserStore:
    """In-memory user catalogue keyed by user id."""

    def __init__(self) -> None:
        self._users: Dict[int, User] = {}

    def __len__(self) -> int:
        return len(self._users)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._users

    def add(self, user: User) -> None:
        """Register (or overwrite) a user record."""
        self._users[user.user_id] = user

    def add_many(self, users: Iterator[User]) -> None:
        """Register a batch of users."""
        for user in users:
            self.add(user)

    def get(self, user_id: int) -> User:
        """Return the user or raise :class:`UnknownUserError`."""
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownUserError(user_id, len(self._users)) from None

    def get_or_none(self, user_id: int) -> Optional[User]:
        """Return the user or ``None`` when absent."""
        return self._users.get(user_id)

    def ensure(self, user_id: int) -> User:
        """Return the user, creating a placeholder record when absent."""
        if user_id not in self._users:
            self._users[user_id] = User(user_id=user_id, name=f"user-{user_id}")
        return self._users[user_id]

    def ids(self) -> List[int]:
        """All registered user ids in sorted order."""
        return sorted(self._users)

    def __iter__(self) -> Iterator[User]:
        for user_id in sorted(self._users):
            yield self._users[user_id]

    @classmethod
    def with_placeholder_users(cls, num_users: int) -> "UserStore":
        """Create a store pre-populated with ``num_users`` placeholder profiles."""
        store = cls()
        for user_id in range(num_users):
            store.add(User(user_id=user_id, name=f"user-{user_id}"))
        return store
