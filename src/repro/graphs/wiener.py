"""Wiener index computation (Eq. (1) of the paper).

The Wiener index of a connected graph ``H`` is the sum of shortest-path
distances over unordered node pairs:

``W(H) = Σ_{ {u,v} ⊆ V(H) } d_H(u, v)``

For disconnected graphs the index is infinite.  Exact computation costs one
BFS per node (``O(|V| (|V| + |E|))``); for the large solutions produced by
baseline methods we also provide a pair-sampling estimator, matching the
paper's Remark 1 ("approximate the Wiener index" for large candidates).

Above :data:`CSR_DISPATCH_THRESHOLD` nodes,
:func:`wiener_index` and :func:`wiener_index_sampled` convert to the CSR
array layer once and run their BFS passes there — the ``O(|E|)``
relabeling is amortized over the traversals.  Distance sums are integers
(and the sampled estimator draws the same sources either way), so the
array paths return bit-identical values to the dict paths.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_distances

#: Node count at which Wiener computation switches to the CSR arrays;
#: below it the relabeling overhead exceeds the vectorization gain.
CSR_DISPATCH_THRESHOLD = 128


def _csr_or_none(graph: Graph) -> CSRGraph | None:
    if graph.num_nodes < CSR_DISPATCH_THRESHOLD:
        return None
    return CSRGraph.from_graph(graph)


def wiener_index(graph: Graph) -> float:
    """Return the exact Wiener index of ``graph``.

    Returns ``math.inf`` if the graph is disconnected, 0 for graphs with
    fewer than two nodes.  Large graphs are computed on the CSR arrays
    (same exact value, much lower constant factors).
    """
    n = graph.num_nodes
    if n < 2:
        return 0.0
    csr = _csr_or_none(graph)
    if csr is not None:
        return csr.wiener_index()
    total = 0
    for node in graph.nodes():
        distances = bfs_distances(graph, node)
        if len(distances) != n:
            return math.inf
        total += sum(distances.values())
    # Each unordered pair was counted twice (once from each endpoint).
    return total / 2


def wiener_index_of_subset(graph: Graph, nodes: Iterable[Node]) -> float:
    """Return ``W(G[S])`` for a node subset ``S`` without materializing views
    the caller might mutate.

    Equivalent to ``wiener_index(graph.subgraph(nodes))``.
    """
    return wiener_index(graph.subgraph(nodes))


def rooted_distance_sum(graph: Graph, root: Node, csr=None) -> float:
    """Return ``Σ_v d_H(root, v)``; infinite if some node is unreachable.

    Callers that already hold a :class:`~repro.graphs.csr.CSRGraph` of
    ``graph`` can pass it as ``csr`` to run the BFS on the arrays
    (a one-shot conversion would cost more than the dict BFS it saves).
    """
    if csr is not None:
        return csr.rooted_distance_sum(csr.index_of[root])
    distances = bfs_distances(graph, root)
    if len(distances) != graph.num_nodes:
        return math.inf
    return float(sum(distances.values()))


def average_distance(graph: Graph) -> float:
    """Return the average pairwise distance ``W(H) / C(|V|, 2)``."""
    n = graph.num_nodes
    if n < 2:
        return 0.0
    index = wiener_index(graph)
    return index / (n * (n - 1) / 2)


def wiener_index_sampled(
    graph: Graph,
    num_sources: int,
    rng: random.Random | None = None,
) -> float:
    """Estimate the Wiener index by BFS from a random sample of sources.

    Samples ``num_sources`` distinct source nodes, averages their distance
    sums and extrapolates to all nodes.  The estimator is unbiased over the
    source choice and exact when ``num_sources >= |V|``.

    Returns ``math.inf`` if any sampled source fails to reach the whole
    graph (the graph is then certainly disconnected).
    """
    n = graph.num_nodes
    if n < 2:
        return 0.0
    rng = rng or random.Random()
    if num_sources >= n:
        return wiener_index(graph)
    csr = _csr_or_none(graph)
    if csr is not None:
        # ``rng.sample`` draws the same positions for equal population
        # sizes, and index order is nodes() insertion order, so the CSR
        # path samples the very sources the dict path would — the integer
        # distance sums (and hence the estimate) are bit-identical.
        sources = rng.sample(range(n), num_sources)
        total = 0
        for source in sources:
            dist = csr.bfs_distances(source)
            if bool((dist < 0).any()):
                return math.inf
            total += int(dist.sum())
        return (total / num_sources) * n / 2
    all_nodes = list(graph.nodes())
    sources = rng.sample(all_nodes, num_sources)
    total = 0.0
    for source in sources:
        distances = bfs_distances(graph, source)
        if len(distances) != n:
            return math.inf
        total += sum(distances.values())
    # Scale the sampled one-to-all sums up to all n sources, then halve.
    return (total / num_sources) * n / 2


def distance_sum_lower_bound(
    graph: Graph, nodes: Iterable[Node]
) -> float:
    """Admissible lower bound on ``W(G[S])`` for any connector ``S ⊇ nodes``.

    Distances in an induced subgraph can only grow relative to the host
    graph, so the sum of *host-graph* distances over pairs of ``nodes`` is a
    valid lower bound on the Wiener index of every connector containing
    them.  Used by the branch-and-bound solver.
    """
    node_list = list(dict.fromkeys(nodes))
    total = 0.0
    for i, u in enumerate(node_list):
        distances = bfs_distances(graph, u)
        for v in node_list[i + 1 :]:
            d = distances.get(v)
            if d is None:
                return math.inf
            total += d
    return total
