"""Shortest-path traversals: BFS for unweighted graphs, Dijkstra for weighted.

These routines are the workhorses of the whole library — the WienerSteiner
algorithm's complexity is dominated by ``|Q|`` single-source traversals
(Algorithm 1, line 1), and the Wiener index itself is an all-pairs BFS sum.

This module is the pure-Python ("dict") implementation.  The CSR array
layer (:mod:`repro.graphs.csr`) provides vectorized equivalents of the
BFS kernels; hot paths such as ``wiener_steiner`` use those directly,
while these versions remain the reference implementation and the API for
hashable node labels.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph, Node, WeightedGraph


def bfs_distances(graph: Graph, source: Node) -> dict[Node, int]:
    """Return shortest-path distances from ``source`` to every reachable node.

    Runs in ``O(|V| + |E|)``.

    Raises
    ------
    NodeNotFoundError
        If ``source`` is not in the graph.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    while queue:
        u = queue.popleft()
        next_distance = distances[u] + 1
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = next_distance
                queue.append(v)
    return distances


def bfs_tree(graph: Graph, source: Node) -> tuple[dict[Node, int], dict[Node, Node]]:
    """Return ``(distances, parents)`` of a BFS tree rooted at ``source``.

    ``parents`` maps every reachable node except the source to its BFS
    predecessor; following parent links yields a shortest path back to the
    source.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: dict[Node, int] = {source: 0}
    parents: dict[Node, Node] = {}
    queue: deque[Node] = deque([source])
    while queue:
        u = queue.popleft()
        next_distance = distances[u] + 1
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = next_distance
                parents[v] = u
                queue.append(v)
    return distances, parents


def bfs_limited(graph: Graph, source: Node, max_depth: int) -> dict[Node, int]:
    """BFS truncated at ``max_depth`` hops; returns distances ``<= max_depth``."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    while queue:
        u = queue.popleft()
        depth = distances[u]
        if depth == max_depth:
            continue
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = depth + 1
                queue.append(v)
    return distances


def multi_source_bfs(
    graph: Graph, sources: Iterable[Node]
) -> tuple[dict[Node, int], dict[Node, Node]]:
    """Multi-source BFS used by Mehlhorn's Steiner approximation.

    Returns ``(distances, closest_source)`` where ``closest_source[v]`` is
    the source whose BFS region ``v`` falls into (Voronoi partition of the
    graph around the sources, with ties broken by traversal order).
    """
    distances: dict[Node, int] = {}
    closest: dict[Node, Node] = {}
    queue: deque[Node] = deque()
    for source in sources:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        if source not in distances:
            distances[source] = 0
            closest[source] = source
            queue.append(source)
    while queue:
        u = queue.popleft()
        next_distance = distances[u] + 1
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = next_distance
                closest[v] = closest[u]
                queue.append(v)
    return distances, closest


def shortest_path(graph: Graph, source: Node, target: Node) -> list[Node] | None:
    """Return one shortest ``source -> target`` path, or ``None`` if unreachable.

    The search is bidirectional-free plain BFS but stops as soon as the
    target is settled, so queries between nearby nodes are fast.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return [source]
    parents: dict[Node, Node] = {source: source}
    queue: deque[Node] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in parents:
                continue
            parents[v] = u
            if v == target:
                return _reconstruct_path(parents, source, target)
            queue.append(v)
    return None


def _reconstruct_path(parents: dict[Node, Node], source: Node, target: Node) -> list[Node]:
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def dijkstra(
    graph: WeightedGraph, source: Node
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Single-source Dijkstra on a non-negatively weighted graph.

    Returns ``(distances, parents)``; unreachable nodes are absent from both
    maps.  Runs in ``O(|E| log |V|)`` with a binary heap.  Parents are
    tracked inline in the heap loop (the relaxing predecessor travels with
    each heap entry and is committed when the node settles) — no separate
    float-tolerance recovery pass is needed; see
    :func:`parents_from_dijkstra` for the standalone recovery utility.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: dict[Node, float] = {}
    parents: dict[Node, Node] = {}
    counter = 0  # tie-breaker so heterogeneous node types never get compared
    heap: list[tuple[float, int, Node, Node | None]] = [(0.0, counter, source, None)]
    tentative: dict[Node, float] = {source: 0.0}
    while heap:
        dist, _, u, parent = heapq.heappop(heap)
        if u in distances:
            continue
        distances[u] = dist
        if parent is not None:
            parents[u] = parent
        for v, weight in graph.neighbors(u).items():
            if v in distances:
                continue
            candidate = dist + weight
            if candidate < tentative.get(v, float("inf")):
                tentative[v] = candidate
                counter += 1
                heapq.heappush(heap, (candidate, counter, v, u))
    return distances, parents


def parents_from_dijkstra(
    graph: WeightedGraph, distances: dict[Node, float]
) -> dict[Node, Node]:
    """Recover a shortest-path-tree parent map from settled distances.

    For each settled node ``v`` (other than the root), pick any neighbor
    ``u`` with ``dist[u] + w(u, v) == dist[v]``; such a neighbor always
    exists.  Floating-point weights are compared with a small tolerance.
    """
    parents: dict[Node, Node] = {}
    for v, dist_v in distances.items():
        if dist_v == 0.0:
            continue
        for u, weight in graph.neighbors(v).items():
            dist_u = distances.get(u)
            if dist_u is None:
                continue
            if abs(dist_u + weight - dist_v) <= 1e-9 * max(1.0, dist_v):
                parents[v] = u
                break
    return parents


def multi_source_dijkstra(
    graph: WeightedGraph, sources: Iterable[Node]
) -> tuple[dict[Node, float], dict[Node, Node], dict[Node, Node]]:
    """Multi-source Dijkstra returning ``(distances, parents, closest_source)``.

    This is the first phase of Mehlhorn's Steiner-tree algorithm: it computes
    the weighted Voronoi partition of the graph around the terminal set.
    """
    distances: dict[Node, float] = {}
    parents: dict[Node, Node] = {}
    closest: dict[Node, Node] = {}
    counter = 0
    heap: list[tuple[float, int, Node, Node, Node | None]] = []
    for source in sources:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        heap.append((0.0, counter, source, source, None))
        counter += 1
    heapq.heapify(heap)
    while heap:
        dist, _, u, source, parent = heapq.heappop(heap)
        if u in distances:
            continue
        distances[u] = dist
        closest[u] = source
        if parent is not None:
            parents[u] = parent
        for v, weight in graph.neighbors(u).items():
            if v not in distances:
                counter += 1
                heapq.heappush(heap, (dist + weight, counter, v, source, u))
    return distances, parents, closest


def bfs_tree_canonical(
    graph: Graph, source: Node, order: dict[Node, int] | None = None
) -> tuple[dict[Node, int], dict[Node, Node]]:
    """BFS tree with *canonical* parents: the lowest-order previous-level neighbor.

    Plain :func:`bfs_tree` breaks parent ties by adjacency-set iteration
    order, which is an implementation accident.  Here ``parents[v]`` is the
    neighbor ``u`` with ``dist[u] == dist[v] - 1`` minimizing ``order[u]``
    (``order`` defaults to node insertion order — the same relabeling the
    CSR backend uses), so the dict and array backends build the exact same
    shortest-path tree.
    """
    if order is None:
        order = {node: index for index, node in enumerate(graph.nodes())}
    distances = bfs_distances(graph, source)
    parents: dict[Node, Node] = {}
    for v, dist_v in distances.items():
        if dist_v == 0:
            continue
        best: Node | None = None
        best_order = -1
        for u in graph.neighbors(v):
            if distances.get(u) != dist_v - 1:
                continue
            u_order = order[u]
            if best is None or u_order < best_order:
                best = u
                best_order = u_order
        parents[v] = best
    return distances, parents


def eccentricity(graph: Graph, source: Node) -> int:
    """Return the eccentricity of ``source`` within its connected component."""
    distances = bfs_distances(graph, source)
    return max(distances.values())
