"""Query and result model.

A :class:`Query` is a seeker asking for the top-``k`` items matching a set
of tags; a :class:`QueryResult` carries the ranked items plus everything the
evaluation framework needs to reproduce the paper-style plots: wall-clock
latency, access counts and whether the algorithm stopped early.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import InvalidQueryError
from .accounting import AccessAccountant

#: Every field a query record (an HTTP body, a trace line) may carry.
QUERY_FIELDS = frozenset({"seeker", "tags", "k"})


def int_field(value: Any, name: str) -> int:
    """An integer record field: a JSON integer or a digit string (GET).

    Bare ``int()`` overflows on ``1e999``, truncates ``1.7`` and takes
    ``true`` for 1; all three are the caller's mistake and a ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return int(value)


def tag_field(value: Any, name: str) -> str:
    """A tag record field: a non-blank JSON string, as a query's tags are.

    A ``null``, a number or a blank string is the caller's mistake and a
    ``ValueError`` — stored, it would be a tag no query can ask for.
    """
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"field {name!r} must be a non-blank string, "
                         f"got {value!r}")
    return value


@dataclass(frozen=True)
class Query:
    """A top-k social search request.

    Attributes
    ----------
    seeker:
        Id of the querying user; their friends are the "help".
    tags:
        Query keywords.  Order is irrelevant; duplicates are removed while
        preserving first occurrence.
    k:
        Number of results requested.
    """

    seeker: int
    tags: Tuple[str, ...]
    k: int = 10

    def __post_init__(self) -> None:
        if self.seeker < 0:
            raise InvalidQueryError(f"seeker id must be non-negative, got {self.seeker}")
        if self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")
        cleaned: List[str] = []
        for tag in self.tags:
            if not isinstance(tag, str) or not tag.strip():
                raise InvalidQueryError(f"query tags must be non-empty strings, got {tag!r}")
            # Interned query tags hit the same objects the dataset's indexes
            # were built with (TaggingAction interns at build time), so the
            # per-posting dict lookups compare by pointer first.
            tag = sys.intern(tag)
            if tag not in cleaned:
                cleaned.append(tag)
        if not cleaned:
            raise InvalidQueryError("a query needs at least one tag")
        object.__setattr__(self, "tags", tuple(cleaned))

    @classmethod
    def single(cls, seeker: int, tag: str, k: int = 10) -> "Query":
        """Convenience constructor for single-tag queries."""
        return cls(seeker=seeker, tags=(tag,), k=k)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Query":
        """Parse a query record strictly (the inverse of :meth:`to_dict`).

        One rule for every record arriving from outside the program — an
        HTTP ``/query`` body and a saved trace line alike: ``seeker`` and
        ``k`` are integers (:func:`int_field`), ``tags`` is a list of
        strings (blank entries dropped), an absent ``k`` means 10, and any
        other key is refused by name.  Raises ``ValueError`` for a
        malformed record and :class:`InvalidQueryError` for an
        out-of-range value.
        """
        if not isinstance(record, Mapping):
            raise ValueError(f"a query record must be an object, got {record!r}")
        unknown = record.keys() - QUERY_FIELDS
        if unknown:
            raise ValueError(f"unknown field {min(unknown)!r}; a query takes "
                             f"{sorted(QUERY_FIELDS)}")
        if record.get("seeker") is None:
            raise ValueError("missing required field 'seeker'")
        tags = record.get("tags") or []
        if not isinstance(tags, list) \
                or not all(isinstance(tag, str) for tag in tags):
            raise ValueError("field 'tags' must be a list of strings")
        k = record.get("k")
        return cls(seeker=int_field(record["seeker"], "seeker"),
                   tags=tuple(tag for tag in tags if tag.strip()),
                   k=10 if k is None else int_field(k, "k"))

    @property
    def num_tags(self) -> int:
        """Number of distinct query tags."""
        return len(self.tags)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {"seeker": self.seeker, "tags": list(self.tags), "k": self.k}


@dataclass(frozen=True)
class ScoredItem:
    """One ranked result item with its score decomposition."""

    item_id: int
    score: float
    textual: float = 0.0
    social: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serialisable representation."""
        return {
            "item_id": self.item_id,
            "score": self.score,
            "textual": self.textual,
            "social": self.social,
        }


@dataclass
class QueryResult:
    """The outcome of running one query with one algorithm."""

    query: Query
    items: List[ScoredItem]
    algorithm: str
    latency_seconds: float = 0.0
    accounting: AccessAccountant = field(default_factory=AccessAccountant)
    terminated_early: bool = False

    @property
    def item_ids(self) -> List[int]:
        """Ranked item ids (best first)."""
        return [item.item_id for item in self.items]

    @property
    def scores(self) -> List[float]:
        """Ranked scores (best first)."""
        return [item.score for item in self.items]

    def top(self, n: int) -> List[ScoredItem]:
        """The best ``n`` results."""
        return self.items[:n]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation for experiment logs."""
        return {
            "query": self.query.to_dict(),
            "algorithm": self.algorithm,
            "latency_seconds": self.latency_seconds,
            "terminated_early": self.terminated_early,
            "accounting": self.accounting.to_dict(),
            "items": [item.to_dict() for item in self.items],
        }


def make_queries(pairs: Sequence[Tuple[int, Sequence[str]]], k: int = 10) -> List[Query]:
    """Build a list of queries from ``(seeker, tags)`` pairs (helper for examples)."""
    return [Query(seeker=seeker, tags=tuple(tags), k=k) for seeker, tags in pairs]
