"""Social proximity measures: how much a friend's endorsement should count."""

from .base import (
    ProximityMeasure,
    available_proximities,
    create_proximity,
    register_proximity,
)
from .shortest_path import PROXIMITY_FLOOR, ShortestPathProximity
from .pagerank import MonteCarloPageRankProximity, PersonalizedPageRankProximity
from .katz import KatzProximity
from .neighbourhood import (
    AdamicAdarProximity,
    CommonNeighboursProximity,
    JaccardProximity,
)
from .landmarks import LandmarkProximity, select_landmarks
from .cache import CachedProximity, CacheStatistics

__all__ = [
    "ProximityMeasure",
    "register_proximity",
    "create_proximity",
    "available_proximities",
    "ShortestPathProximity",
    "PROXIMITY_FLOOR",
    "PersonalizedPageRankProximity",
    "MonteCarloPageRankProximity",
    "KatzProximity",
    "CommonNeighboursProximity",
    "AdamicAdarProximity",
    "JaccardProximity",
    "LandmarkProximity",
    "select_landmarks",
    "CachedProximity",
    "CacheStatistics",
]
