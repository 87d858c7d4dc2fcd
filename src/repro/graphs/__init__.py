"""Graph substrate: data structures, traversals, metrics, and generators.

This package is the foundation the paper's algorithms are built on.  The
dict/set :class:`Graph` API is pure Python — the library never depends on
networkx (which is used only as a test oracle).  :mod:`repro.graphs.csr`
adds the numpy-backed CSR array layer (:class:`CSRGraph`): nodes
relabeled once to ``0..n-1`` in insertion order (the *canonical order*
used for every tie-break in the library), traversals vectorized over whole
BFS frontiers.
"""

from repro.graphs.centrality import (
    average_betweenness,
    betweenness_centrality,
    closeness_centrality,
    pagerank,
    random_walk_with_restart,
)
from repro.graphs.components import (
    connected_components,
    is_connected,
    is_tree,
    largest_component,
    largest_component_subgraph,
    nodes_connect,
    require_connected,
)
from repro.graphs.cores import core_numbers, k_core_nodes, max_core_component_with
from repro.graphs.csr import CSRGraph, order_map
from repro.graphs.graph import Graph, WeightedGraph, Node, Edge
from repro.graphs.landmarks import LandmarkIndex
from repro.graphs.metrics import (
    GraphSummary,
    average_clustering,
    average_degree,
    degree_histogram,
    density,
    effective_diameter,
    local_clustering,
    summarize,
)
from repro.graphs.traversal import (
    bfs_distances,
    bfs_limited,
    bfs_tree,
    bfs_tree_canonical,
    dijkstra,
    eccentricity,
    multi_source_bfs,
    multi_source_dijkstra,
    parents_from_dijkstra,
    shortest_path,
)
from repro.graphs.unionfind import UnionFind
from repro.graphs.wiener import (
    average_distance,
    distance_sum_lower_bound,
    rooted_distance_sum,
    wiener_index,
    wiener_index_of_subset,
    wiener_index_sampled,
)

__all__ = [
    "Graph",
    "WeightedGraph",
    "Node",
    "Edge",
    "CSRGraph",
    "order_map",
    "bfs_tree_canonical",
    "parents_from_dijkstra",
    "connected_components",
    "is_connected",
    "is_tree",
    "largest_component",
    "largest_component_subgraph",
    "nodes_connect",
    "require_connected",
    "bfs_distances",
    "bfs_limited",
    "bfs_tree",
    "dijkstra",
    "eccentricity",
    "multi_source_bfs",
    "multi_source_dijkstra",
    "shortest_path",
    "UnionFind",
    "core_numbers",
    "LandmarkIndex",
    "k_core_nodes",
    "max_core_component_with",
    "average_distance",
    "distance_sum_lower_bound",
    "rooted_distance_sum",
    "wiener_index",
    "wiener_index_of_subset",
    "wiener_index_sampled",
    "GraphSummary",
    "average_clustering",
    "average_degree",
    "degree_histogram",
    "density",
    "effective_diameter",
    "local_clustering",
    "summarize",
    "average_betweenness",
    "betweenness_centrality",
    "closeness_centrality",
    "pagerank",
    "random_walk_with_restart",
]
