"""Proximity-measure interface and registry.

A *proximity measure* maps a pair of users ``(seeker, target)`` to a score
in ``[0, 1]`` quantifying how much the target's tagging actions should count
as "help from a friend" when ranking results for the seeker.  Algorithms
consume proximity through two access paths:

* :meth:`ProximityMeasure.proximity` — point lookup, used by random-access
  style algorithms and by the exact baseline;
* :meth:`ProximityMeasure.iter_ranked` — a stream of ``(user, proximity)``
  pairs in non-increasing proximity order, used by frontier-expansion
  algorithms that want to visit the most helpful friends first.

Concrete measures register themselves under a short name so configuration
files can select them by string.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from ..config import ProximityConfig
from ..errors import UnknownProximityError
from ..graph import SocialGraph

RankedStream = Iterator[Tuple[int, float]]


class ProximityMeasure(ABC):
    """Abstract base class for social proximity measures.

    Parameters
    ----------
    graph:
        The social graph proximity is computed on.
    config:
        Shared :class:`~repro.config.ProximityConfig` carrying the measure's
        hyper-parameters.
    """

    #: Registry name; subclasses must override.
    name: str = "abstract"

    def __init__(self, graph: SocialGraph, config: Optional[ProximityConfig] = None) -> None:
        self._graph = graph
        self._config = config or ProximityConfig()

    @property
    def graph(self) -> SocialGraph:
        """The underlying social graph."""
        return self._graph

    @property
    def config(self) -> ProximityConfig:
        """The proximity configuration in effect."""
        return self._config

    # ------------------------------------------------------------------ #
    # Core interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def vector(self, seeker: int) -> Dict[int, float]:
        """Return ``{user: proximity}`` for every user with proximity above the floor.

        The seeker itself is never included.  Implementations must return
        values in ``[0, 1]``.
        """

    def vector_array(self, seeker: int) -> np.ndarray:
        """Dense form of :meth:`vector`: one float per user, 0 where unrelated.

        The seeker's own entry is always 0 (matching the dict form, which
        never contains the seeker), so vectorized scoring kernels can gather
        from the array without re-checking the seeker-exclusion rule.  The
        returned array must be treated as read-only; measures with a native
        array representation override this to skip the dict round-trip.
        """
        vector = self.vector(seeker)
        dense = np.zeros(self._graph.num_users, dtype=np.float64)
        if vector:
            users = np.fromiter(vector.keys(), dtype=np.int64, count=len(vector))
            values = np.fromiter(vector.values(), dtype=np.float64, count=len(vector))
            dense[users] = values
        return dense

    def proximity(self, seeker: int, target: int) -> float:
        """Proximity of ``target`` to ``seeker`` (0.0 when unrelated)."""
        self._graph.validate_user(seeker)
        self._graph.validate_user(target)
        if seeker == target:
            return 1.0
        return self.vector(seeker).get(target, 0.0)

    def iter_ranked(self, seeker: int) -> RankedStream:
        """Yield ``(user, proximity)`` pairs in non-increasing proximity order.

        The default implementation materialises :meth:`vector` and sorts it;
        shortest-path overrides this because its row is already ranked.
        """
        vector = self.vector(seeker)
        ranked = sorted(vector.items(), key=lambda pair: (-pair[1], pair[0]))
        for user, value in ranked:
            yield user, value

    def frontier_bound(self, seeker: int) -> Optional[float]:
        """Cheap upper bound on the first value of :meth:`iter_ranked`, or ``None``.

        When a measure can answer "how proximate is the seeker's closest
        friend?" without materialising the ranked stream (a cached dense
        array), it returns that exact maximum here
        and :class:`~repro.core.topk.sources.SocialFrontier` defers opening
        the stream until a friend is actually visited.  The value must equal
        the first ranked proximity bit for bit — callers use it in
        termination tests that have to agree with the streamed path.
        ``None`` means "not known cheaply"; callers fall back to the stream.
        """
        return None

    def rebind(self, graph: SocialGraph) -> None:
        """Point the measure at a new (updated) social graph.

        :class:`~repro.storage.updates.DatasetUpdater` replaces the dataset's
        immutable CSR graph object on every edge/user addition; a measure
        built before the update would otherwise keep computing on the old
        graph forever.  Subclasses with precomputed per-graph state override
        :meth:`_on_graph_changed` to refresh it.
        """
        self._graph = graph
        self._on_graph_changed()

    def _on_graph_changed(self) -> None:
        """Hook for subclasses holding state derived from the graph."""

    def top(self, seeker: int, limit: int) -> List[Tuple[int, float]]:
        """Return the ``limit`` most proximate users to ``seeker``."""
        result: List[Tuple[int, float]] = []
        for user, value in self.iter_ranked(seeker):
            result.append((user, value))
            if len(result) >= limit:
                break
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(users={self._graph.num_users})"


_REGISTRY: Dict[str, Type[ProximityMeasure]] = {}


def register_proximity(name: str) -> Callable[[Type[ProximityMeasure]], Type[ProximityMeasure]]:
    """Class decorator registering a proximity measure under ``name``."""

    def decorator(cls: Type[ProximityMeasure]) -> Type[ProximityMeasure]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_proximities() -> Tuple[str, ...]:
    """Names of all registered proximity measures."""
    return tuple(sorted(_REGISTRY))


def create_proximity(name: str, graph: SocialGraph,
                     config: Optional[ProximityConfig] = None) -> ProximityMeasure:
    """Instantiate the proximity measure registered under ``name``."""
    if name not in _REGISTRY:
        raise UnknownProximityError(name, available_proximities())
    return _REGISTRY[name](graph, config)
