"""Query and result model.

A :class:`Query` is a seeker asking for the top-``k`` items matching a set
of tags; a :class:`QueryResult` carries the ranked items plus everything the
evaluation framework needs to reproduce the paper-style plots: wall-clock
latency, access counts and whether the algorithm stopped early.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidQueryError
from .accounting import AccessAccountant


#: Effort hints a query may carry.
EFFORT_LEVELS = ("exact", "fast")


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
    effort:
        Optional serving hint: ``"fast"`` accepts the landmark-sketch
        answer when the engine built a sketch (exact otherwise);
        ``"exact"`` — like no hint — always gets the exact scan.
    """

    seeker: int
    tags: Tuple[str, ...]
    k: int = 10
    effort: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seeker < 0:
            raise InvalidQueryError(f"seeker id must be non-negative, got {self.seeker}")
        if self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")
        if self.effort is not None and self.effort not in EFFORT_LEVELS:
            raise InvalidQueryError(
                f"effort must be one of {EFFORT_LEVELS}, got {self.effort!r}")
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

    @property
    def num_tags(self) -> int:
        """Number of distinct query tags."""
        return len(self.tags)

    @property
    def has_serving_hint(self) -> bool:
        """Whether the query carries an effort hint."""
        return self.effort is not None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        data: Dict[str, object] = {"seeker": self.seeker,
                                   "tags": list(self.tags), "k": self.k}
        if self.effort is not None:
            data["effort"] = self.effort
        return data


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
    """The outcome of running one query with one algorithm.

    ``is_exact`` records whether the result is provably identical to the
    exact path; only landmark-sketch answers set it false.
    """

    query: Query
    items: List[ScoredItem]
    algorithm: str
    latency_seconds: float = 0.0
    accounting: AccessAccountant = field(default_factory=AccessAccountant)
    terminated_early: bool = False
    is_exact: bool = True

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
            "is_exact": self.is_exact,
            "accounting": self.accounting.to_dict(),
            "items": [item.to_dict() for item in self.items],
        }


def make_queries(pairs: Sequence[Tuple[int, Sequence[str]]], k: int = 10) -> List[Query]:
    """Build a list of queries from ``(seeker, tags)`` pairs (helper for examples)."""
    return [Query(seeker=seeker, tags=tuple(tags), k=k) for seeker, tags in pairs]
