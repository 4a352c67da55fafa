"""Social graph substrate: CSR storage, generators, traversal, statistics."""

from .graph import SocialGraph, SocialGraphBuilder
from .generators import (
    available_generators,
    barabasi_albert,
    community,
    erdos_renyi,
    estimate_edges,
    expected_density,
    forest_fire,
    generate_graph,
    watts_strogatz,
)
from .traversal import (
    bfs_levels,
    connected_components,
    dijkstra,
    dijkstra_iter,
    distance_to_proximity,
    edge_distance,
    largest_component,
    reachable_within,
    shortest_path,
    shortest_path_row,
)
from .statistics import (
    GraphStatistics,
    approximate_average_path_length,
    clustering_coefficient,
    compute_statistics,
    degree_gini,
)
from .partition import (
    communities_from_labels,
    label_propagation,
    modularity,
    partition_statistics,
)

__all__ = [
    "SocialGraph",
    "SocialGraphBuilder",
    "available_generators",
    "generate_graph",
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "forest_fire",
    "community",
    "expected_density",
    "estimate_edges",
    "bfs_levels",
    "dijkstra",
    "dijkstra_iter",
    "shortest_path",
    "shortest_path_row",
    "connected_components",
    "largest_component",
    "reachable_within",
    "edge_distance",
    "distance_to_proximity",
    "GraphStatistics",
    "compute_statistics",
    "degree_gini",
    "clustering_coefficient",
    "approximate_average_path_length",
    "label_propagation",
    "communities_from_labels",
    "modularity",
    "partition_statistics",
]
