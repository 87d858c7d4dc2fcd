"""Steiner tree machinery: Mehlhorn's 2-approximation and tree utilities.

Mehlhorn's algorithm (Inf. Proc. Letters 1988) is the Steiner solver the
paper uses both as the ``st`` baseline and inside ``WienerSteiner``
(Corollary 3 invokes it on the reweighted instance ``G_{r,λ}``).  It works
in three steps:

1. a multi-source Dijkstra from the terminal set partitions ``G`` into
   Voronoi regions and yields, for every edge ``(u, v)`` crossing two
   regions, a candidate terminal-to-terminal path of length
   ``d(s_u, u) + w(u, v) + d(v, s_v)``;
2. a minimum spanning tree of the induced "distance network" on terminals
   is computed (Kruskal on the candidate edges);
3. every MST edge is expanded back into an actual path of ``G``, the union
   is re-spanned, and non-terminal leaves are pruned.

The result is a tree spanning the terminals with total weight at most twice
the optimum.

Two implementations
-------------------

All tie-breaking (which source claims a node, which crossing edge
represents a terminal pair, Kruskal and MST orderings) is canonicalized by
the node's integer position in :func:`repro.graphs.csr.order_map` — the
same ``0..n-1`` relabeling the CSR arrays use.  Phase 1 has two
interchangeable implementations for strictly positive weights: the
dict-based :func:`dijkstra_distances_canonical` plus
:func:`canonical_forest_from_distances` below, which serve as the test
oracle, and the scipy-Dijkstra engine in :mod:`repro.core.fastpath`
(``mehlhorn_steiner_csr``) consuming ``(indptr, indices, weights)``
directly.  Both hand their Voronoi output to the shared
:func:`steiner_tree_from_voronoi`, so the two produce *identical* trees,
not merely equally good ones.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable

from repro.errors import DisconnectedGraphError, InvalidQueryError
from repro.graphs.csr import order_map
from repro.graphs.graph import Graph, Node, WeightedGraph
from repro.graphs.unionfind import UnionFind


def mehlhorn_steiner_tree(
    graph: WeightedGraph,
    terminals: Iterable[Node],
    assume_positive_weights: bool | None = None,
) -> WeightedGraph:
    """Return a 2-approximate Steiner tree for ``terminals`` in ``graph``.

    Runs in ``O(|E| log |V|)``.  The returned :class:`WeightedGraph` is a
    tree whose nodes include all terminals and whose edge weights are copied
    from the host graph.  Nodes and edges are inserted in canonical
    (relabeled-index) order, so downstream traversals of the tree are
    deterministic and backend-independent.

    ``assume_positive_weights`` skips the ``O(|E|)`` minimum-weight scan
    when the caller already knows every weight is strictly positive (the
    reweighted ``G_{r,λ}`` instances always are: ``w ≥ λ > 0``).

    Raises
    ------
    InvalidQueryError
        If the terminal set is empty or contains unknown nodes.
    DisconnectedGraphError
        If the terminals do not lie in a single component.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise InvalidQueryError("terminal set must be non-empty")
    for terminal in terminal_list:
        if not graph.has_node(terminal):
            raise InvalidQueryError(f"terminal {terminal!r} not in graph")
    if len(terminal_list) == 1:
        singleton = WeightedGraph()
        singleton.add_node(terminal_list[0])
        return singleton

    order = order_map(graph)
    node_of = list(graph.nodes())
    terminal_indices = sorted(order[t] for t in terminal_list)
    positive = (
        assume_positive_weights
        if assume_positive_weights is not None
        else _min_edge_weight(graph) > 0.0
    )
    if positive:
        # With strictly positive weights the canonical forest is a pure
        # function of the distances, so a lean distance-only Dijkstra plus
        # the post-hoc forest keeps this path bit-identical to the CSR
        # engine, whose distances come from scipy's C Dijkstra rather
        # than a Python heap.
        distances = dijkstra_distances_canonical(
            graph, terminal_list, order, node_of
        )
        parents, closest = canonical_forest_from_distances(
            graph, distances, order, node_of, terminal_indices
        )
    else:
        distances, parents, closest = voronoi_dijkstra_canonical(
            graph, terminal_list, order, node_of
        )

    # Step 2 input: for every terminal pair, the best crossing edge by the
    # canonical key (length, min endpoint index, max endpoint index).  The
    # length is always evaluated as dist[lo] + w + dist[hi] so this oracle
    # and the CSR engine produce bit-identical floats regardless of edge
    # orientation.
    candidates: dict[tuple[int, int], tuple[float, int, int]] = {}
    for u, v, weight in graph.edges():
        u_idx, v_idx = order[u], order[v]
        source_u, source_v = closest[u_idx], closest[v_idx]
        if source_u < 0 or source_v < 0 or source_u == source_v:
            continue
        if u_idx > v_idx:
            u_idx, v_idx = v_idx, u_idx
        key = (
            (source_u, source_v) if source_u < source_v else (source_v, source_u)
        )
        entry = (distances[u_idx] + weight + distances[v_idx], u_idx, v_idx)
        best = candidates.get(key)
        if best is None or entry < best:
            candidates[key] = entry

    tree_nodes, tree_edges = steiner_tree_from_voronoi(
        terminal_indices,
        candidates,
        parents.__getitem__,
        lambda a, b: graph.weight(node_of[a], node_of[b]),
    )

    result = WeightedGraph()
    for index in tree_nodes:
        result.add_node(node_of[index])
    for a, b in tree_edges:
        result.add_edge(node_of[a], node_of[b], graph.weight(node_of[a], node_of[b]))
    return result


def voronoi_dijkstra_canonical(
    graph: WeightedGraph,
    sources: Iterable[Node],
    order: dict[Node, int],
    node_of: list[Node],
) -> tuple[list[float], list[int], list[int]]:
    """Multi-source Dijkstra with canonical index tie-breaking (phase 1).

    Returns index-space lists ``(dist, parent, closest)`` with ``-1``
    sentinels; unsettled nodes keep ``dist = inf``.  Heap entries are
    ``(dist, source_index, node_index, parent_index)``: equal-distance ties
    settle the lowest source index first, then the lowest node index.
    :func:`mehlhorn_steiner_tree` runs this loop only when some weight is
    not strictly positive; otherwise it, like ``mehlhorn_steiner_csr``,
    rebuilds the forest from the distances alone
    (:func:`canonical_forest_from_distances`).
    """
    n = len(node_of)
    inf = math.inf
    dist = [inf] * n
    parent = [-1] * n
    closest = [-1] * n
    best = [inf] * n
    settled = bytearray(n)
    heap: list[tuple[float, int, int, int]] = []
    for source in dict.fromkeys(sources):
        source_idx = order[source]
        best[source_idx] = 0.0
        heap.append((0.0, source_idx, source_idx, -1))
    heapq.heapify(heap)
    while heap:
        d, source_idx, u_idx, parent_idx = heapq.heappop(heap)
        if settled[u_idx]:
            continue
        settled[u_idx] = 1
        dist[u_idx] = d
        closest[u_idx] = source_idx
        parent[u_idx] = parent_idx
        for v, weight in graph.neighbors(node_of[u_idx]).items():
            v_idx = order[v]
            if settled[v_idx]:
                continue
            candidate = d + weight
            if candidate < best[v_idx]:
                best[v_idx] = candidate
                heapq.heappush(heap, (candidate, source_idx, v_idx, u_idx))
    return dist, parent, closest


def _min_edge_weight(graph: WeightedGraph) -> float:
    """The smallest edge weight (0.0 for an edgeless graph)."""
    return min((w for _, _, w in graph.edges()), default=0.0)


def dijkstra_distances_canonical(
    graph: WeightedGraph,
    sources: Iterable[Node],
    order: dict[Node, int],
    node_of: list[Node],
) -> list[float]:
    """Multi-source Dijkstra distances only, in index space.

    Distances carry no tie ambiguity — the float min-plus fixpoint is
    unique for non-negative weights — so this lean loop (2-tuple heap
    entries, no parent/source bookkeeping) returns the exact same values
    as :func:`voronoi_dijkstra_canonical`, scipy's C Dijkstra, or any
    other correct implementation.
    """
    n = len(node_of)
    inf = math.inf
    dist = [inf] * n
    best = [inf] * n
    settled = bytearray(n)
    heap: list[tuple[float, int]] = []
    for source in dict.fromkeys(sources):
        source_idx = order[source]
        best[source_idx] = 0.0
        heap.append((0.0, source_idx))
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, u_idx = pop(heap)
        if settled[u_idx]:
            continue
        settled[u_idx] = 1
        dist[u_idx] = d
        for v, weight in graph.neighbors(node_of[u_idx]).items():
            v_idx = order[v]
            if settled[v_idx]:
                continue
            candidate = d + weight
            if candidate < best[v_idx]:
                best[v_idx] = candidate
                push(heap, (candidate, v_idx))
    return dist


def canonical_forest_from_distances(
    graph: WeightedGraph,
    dist: list[float],
    order: dict[Node, int],
    node_of: list[Node],
    terminal_indices: list[int],
) -> tuple[list[int], list[int]]:
    """The canonical Voronoi forest as a pure function of exact distances.

    Requires strictly positive weights.  ``parent[v]`` is the *tight*
    inbound neighbor — ``dist[u] + w(u, v) == dist[v]``, bit-exact —
    minimizing ``(dist[u], u)``; ``closest[v]`` is the root of the
    resulting forest (always a source: positive weights force
    ``dist[parent] < dist[child]``, so chains terminate at distance 0).
    The CSR engine's vectorized ``_voronoi_from_distances`` in
    :mod:`repro.core.fastpath` applies the same rule with scatter-mins;
    this edge-by-edge loop is the oracle it is tested against.  Because
    the forest depends only on the distance array, both give the same
    forest no matter which Dijkstra produced the distances.
    """
    n = len(node_of)
    inf = math.inf
    parent = [-1] * n
    for v_idx in range(n):
        dv = dist[v_idx]
        if dv == inf:
            continue
        best_dist = inf
        best_parent = -1
        for u, weight in graph.neighbors(node_of[v_idx]).items():
            u_idx = order[u]
            du = dist[u_idx]
            if du == inf:
                continue
            if du + weight == dv and (
                du < best_dist or (du == best_dist and u_idx < best_parent)
            ):
                best_dist = du
                best_parent = u_idx
        parent[v_idx] = best_parent
    closest = [-1] * n
    for terminal_idx in terminal_indices:
        parent[terminal_idx] = -1
        closest[terminal_idx] = terminal_idx
    for start in range(n):
        if closest[start] != -1 or dist[start] == inf:
            continue
        path = [start]
        node = parent[start]
        while node != -1 and closest[node] == -1:
            path.append(node)
            node = parent[node]
        root = closest[node] if node != -1 else -1
        for member in path:
            closest[member] = root
    return parent, closest


def steiner_tree_from_voronoi(
    terminal_indices: list[int],
    candidates: dict[tuple[int, int], tuple[float, int, int]],
    parent_of: Callable[[int], int],
    weight_of: Callable[[int, int], float],
) -> tuple[list[int], list[tuple[int, int]]]:
    """Phases 2–3 of Mehlhorn, shared by the CSR engine and the dict oracle.

    Everything happens in relabeled-index space and every ordering is
    canonical, so the output depends only on the (deterministic) Voronoi
    phase, never on hash iteration order.

    Parameters
    ----------
    terminal_indices:
        Sorted terminal indices.
    candidates:
        ``(min source idx, max source idx) -> (length, min endpoint idx,
        max endpoint idx)`` — the best crossing edge per terminal pair.
    parent_of:
        Voronoi shortest-path forest accessor (``-1`` for roots).
    weight_of:
        Edge weight accessor in index space.

    Returns
    -------
    (nodes, edges)
        Sorted node indices and canonically sorted edge index pairs of the
        pruned Steiner tree.

    Raises
    ------
    DisconnectedGraphError
        If the candidate edges cannot connect all terminals.
    """
    ordered = sorted(candidates.items(), key=lambda item: (item[1][0], item[0]))
    forest = UnionFind(terminal_indices)
    bridges: list[tuple[int, int]] = []
    for (source_a, source_b), (_, u_idx, v_idx) in ordered:
        if forest.union(source_a, source_b):
            bridges.append((u_idx, v_idx))
    if forest.num_sets > 1:
        raise DisconnectedGraphError("terminals lie in different components")

    # Expand every bridge into its two shortest paths back to the sources.
    union_nodes: set[int] = set(terminal_indices)
    union_edges: set[tuple[int, int]] = set()
    for u_idx, v_idx in bridges:
        union_edges.add((u_idx, v_idx) if u_idx < v_idx else (v_idx, u_idx))
        union_nodes.add(u_idx)
        union_nodes.add(v_idx)
        for endpoint in (u_idx, v_idx):
            node = endpoint
            while True:
                parent = parent_of(node)
                if parent < 0:
                    break
                union_edges.add(
                    (node, parent) if node < parent else (parent, node)
                )
                union_nodes.add(parent)
                node = parent

    # Re-span the union (Kruskal, canonical ordering) ...
    mst_order = sorted(union_edges, key=lambda e: (weight_of(*e), e))
    spanning = UnionFind(sorted(union_nodes))
    adjacency: dict[int, list[int]] = {idx: [] for idx in sorted(union_nodes)}
    mst_edges: list[tuple[int, int]] = []
    for a, b in mst_order:
        if spanning.union(a, b):
            mst_edges.append((a, b))
            adjacency[a].append(b)
            adjacency[b].append(a)

    # ... and strip non-terminal leaves (the fixpoint is order-independent).
    terminal_set = set(terminal_indices)
    degree = {idx: len(neighbors) for idx, neighbors in adjacency.items()}
    removable = [
        idx for idx in adjacency if degree[idx] <= 1 and idx not in terminal_set
    ]
    removed: set[int] = set()
    while removable:
        idx = removable.pop()
        if idx in removed or degree[idx] > 1:
            continue
        removed.add(idx)
        for neighbor in adjacency[idx]:
            if neighbor in removed:
                continue
            degree[neighbor] -= 1
            if degree[neighbor] <= 1 and neighbor not in terminal_set:
                removable.append(neighbor)

    nodes = sorted(union_nodes - removed)
    edges = sorted(
        (a, b)
        for a, b in mst_edges
        if a not in removed and b not in removed
    )
    return nodes, edges


def minimum_spanning_tree(graph: WeightedGraph) -> WeightedGraph:
    """Return a minimum spanning tree (forest, if disconnected) via Kruskal."""
    tree = WeightedGraph()
    for node in graph.nodes():
        tree.add_node(node)
    edges = sorted(graph.edges(), key=lambda edge: edge[2])
    forest = UnionFind(graph.nodes())
    for u, v, weight in edges:
        if forest.union(u, v):
            tree.add_edge(u, v, weight)
    return tree


def prune_steiner_leaves(tree: WeightedGraph, terminals: Iterable[Node]) -> WeightedGraph:
    """Iteratively strip non-terminal leaves from ``tree`` (in place-ish).

    Mehlhorn's final cleanup: any degree-1 node that is not a terminal can
    be dropped without disconnecting the terminals, only lowering the cost.
    Returns a new tree.
    """
    terminal_set = set(terminals)
    pruned = WeightedGraph()
    for node in tree.nodes():
        pruned.add_node(node)
    for u, v, w in tree.edges():
        pruned.add_edge(u, v, w)

    adjacency = {node: dict(pruned.neighbors(node)) for node in pruned.nodes()}
    removable = [
        node for node, neighbors in adjacency.items()
        if len(neighbors) <= 1 and node not in terminal_set
    ]
    removed: set[Node] = set()
    while removable:
        node = removable.pop()
        if node in removed or node in terminal_set:
            continue
        neighbors = adjacency[node]
        if len(neighbors) > 1:
            continue
        removed.add(node)
        for neighbor in list(neighbors):
            del adjacency[neighbor][node]
            if len(adjacency[neighbor]) <= 1 and neighbor not in terminal_set:
                removable.append(neighbor)
        adjacency[node] = {}

    result = WeightedGraph()
    for node in adjacency:
        if node not in removed:
            result.add_node(node)
    for node, neighbors in adjacency.items():
        if node in removed:
            continue
        for neighbor, weight in neighbors.items():
            if neighbor not in removed:
                result.add_edge(node, neighbor, weight)
    return result


def steiner_tree_unweighted(graph: Graph, terminals: Iterable[Node]) -> Graph:
    """Mehlhorn on an unweighted graph: lift to unit weights, return a plain tree.

    This is the paper's ``st`` baseline entry point.
    """
    weighted = WeightedGraph.from_graph(graph)
    tree = mehlhorn_steiner_tree(weighted, terminals)
    return tree.unweighted()


def tree_total_weight(tree: WeightedGraph) -> float:
    """Return the Steiner objective (sum of edge weights) of a tree."""
    return tree.total_weight()
