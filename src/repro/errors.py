"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The subclasses mirror the
major subsystems (graph, storage, query, workload, evaluation) and carry
enough context in their messages to diagnose misuse without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is constructed with invalid values."""


class GraphError(ReproError):
    """Base class for social-graph related errors."""


class UnknownUserError(GraphError):
    """Raised when an operation references a user id not present in the graph."""

    def __init__(self, user_id: int, num_users: int) -> None:
        super().__init__(
            f"user id {user_id} is out of range for a graph with {num_users} users"
        )
        self.user_id = user_id
        self.num_users = num_users


class InvalidEdgeError(GraphError):
    """Raised when an edge is malformed (self loop, bad weight, unknown endpoint)."""


class StorageError(ReproError):
    """Base class for storage-engine errors."""


class UnknownItemError(StorageError):
    """Raised when an operation references an item id that was never registered."""

    def __init__(self, item_id: int) -> None:
        super().__init__(f"item id {item_id} is not present in the item store")
        self.item_id = item_id


class UnknownTagError(StorageError):
    """Raised when a tag is requested from an index that has never seen it."""

    def __init__(self, tag: str) -> None:
        super().__init__(f"tag {tag!r} is not present in the index")
        self.tag = tag


class DuplicateItemError(StorageError):
    """Raised when an item id is registered twice with conflicting payloads."""


class PersistenceError(StorageError):
    """Raised when an arena, WAL, manifest or query trace cannot be written or parsed."""


class QueryError(ReproError):
    """Base class for query-processing errors."""


class InvalidQueryError(QueryError):
    """Raised when a query is empty, has non-positive k, or malformed tags."""


class UnknownAlgorithmError(QueryError):
    """Raised when an algorithm name is not present in the registry."""

    def __init__(self, name: str, available: tuple) -> None:
        super().__init__(
            f"unknown top-k algorithm {name!r}; available: {', '.join(sorted(available))}"
        )
        self.name = name
        self.available = tuple(available)


class UnknownProximityError(QueryError):
    """Raised when a proximity-measure name is not present in the registry."""

    def __init__(self, name: str, available: tuple) -> None:
        super().__init__(
            f"unknown proximity measure {name!r}; available: {', '.join(sorted(available))}"
        )
        self.name = name
        self.available = tuple(available)


class WorkloadError(ReproError):
    """Raised when a synthetic workload cannot be generated as requested."""


class EvaluationError(ReproError):
    """Raised when an experiment or metric computation is misconfigured."""


class ServiceError(ReproError):
    """Raised when the query-serving subsystem is misused (e.g. closed service)."""
