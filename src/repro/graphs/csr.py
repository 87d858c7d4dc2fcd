"""CSR (compressed sparse row) array layer for the graph substrate.

The hashable-node :class:`~repro.graphs.graph.Graph` is the library's
public data model, but its dict/set adjacency makes every traversal pay
Python-interpreter constants per edge.  :class:`CSRGraph` is the
acceleration layer underneath: nodes are relabeled once to ``0..n-1``
integers (in :meth:`Graph.nodes` insertion order — the *canonical order*
every tie-break in the library refers to), adjacency becomes two flat
integer arrays (``indptr``/``indices``), and the traversal inner loops
become vectorized numpy expressions over whole BFS frontiers.

Where the CSR layer is used
---------------------------

* :func:`repro.graphs.wiener.wiener_index` converts to CSR above a size
  threshold — the one-off ``O(|E|)`` relabeling is amortized over ``|V|``
  BFS traversals;
* the solver engine (:mod:`repro.core.fastpath`) keeps one
  :class:`CSRGraph` per service for every λ×root sweep: BFS caches,
  per-arc reweighting, Steiner solving and candidate scoring all reuse
  the same arrays;
* candidate scoring uses :meth:`CSRGraph.induced` index masks instead of
  rebuilding hash-based subgraphs.

Canonical tie-breaking
----------------------

All kernels here resolve ties by the smallest integer index (e.g. a BFS
parent is the *lowest-index* neighbor on the previous level).  The dict
traversals apply the same rule via the node→index :func:`order_map`,
which is what makes the engine and the dict reference oracle
(:mod:`repro.core.reference`) return bit-identical results rather than
merely equivalent ones.

numpy and scipy are required dependencies.  scipy is used only where
results are tie-free (all-pairs distance matrices for Wiener scoring,
distance-only Dijkstra in the engine), so it can never change an answer.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import shortest_path as _scipy_shortest_path

from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.graph import Graph, Node, WeightedGraph

#: Above this many nodes an all-pairs matrix would not fit comfortably in
#: memory, so Wiener computation falls back to one-source-at-a-time BFS.
_SCIPY_ALL_PAIRS_MAX_NODES = 2048


class CSRGraph:
    """An immutable index-array view of a :class:`Graph`.

    Attributes
    ----------
    indptr:
        ``int64[n + 1]`` — row pointers; the arcs of node ``i`` live at
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int64[2m]`` — arc heads, sorted ascending within each row (the
        canonical adjacency order).
    node_of:
        ``list`` mapping index → original node label (identity when the
        CSR was built directly from arrays).
    index_of:
        ``dict`` mapping original node label → index.
    """

    __slots__ = ("indptr", "indices", "node_of", "index_of", "_arc_src", "_half_arcs")

    def __init__(self, indptr, indices, node_of=None, index_of=None) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if node_of is None:
            node_of = list(range(len(self.indptr) - 1))
        self.node_of = node_of
        if index_of is None:
            index_of = {node: i for i, node in enumerate(node_of)}
        self.index_of = index_of
        self._arc_src = None
        self._half_arcs = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Relabel ``graph`` to ``0..n-1`` (insertion order) and pack to CSR."""
        node_of = list(graph.nodes())
        index_of = {node: i for i, node in enumerate(node_of)}
        n = len(node_of)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(node_of):
            indptr[i + 1] = indptr[i] + graph.degree(node)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for i, node in enumerate(node_of):
            row = sorted(index_of[v] for v in graph.neighbors(node))
            indices[int(indptr[i]) : int(indptr[i + 1])] = row
        return cls(indptr, indices, node_of, index_of)

    @classmethod
    def from_edge_stream(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        *,
        chunk_size: int = 1 << 20,
    ) -> "CSRGraph":
        """Pack an edge *stream* straight into CSR arrays, no dict graph.

        The scale-construction path of the load harness: a generator's
        edge stream (``0 <= u, v < num_nodes`` integer endpoints) is
        accumulated in bounded numpy chunks and packed directly, so a
        10^6+-node instance costs two int64 arrays instead of a
        dict-of-sets :class:`Graph` an order of magnitude larger.

        Semantics match building a ``Graph(nodes=range(num_nodes))`` from
        the same stream and calling :meth:`from_graph` on it, bit for
        bit: self-loops are rejected (the graph is simple), duplicate
        edges collapse silently, every row comes out sorted ascending
        (the canonical adjacency order), and isolated vertices keep their
        empty rows.  ``tests/test_scale_generators.py`` asserts the array
        identity on every generator family.
        """
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        if chunk_size < 1:
            raise GraphError(f"chunk_size must be positive, got {chunk_size}")
        src_chunks: list = []
        dst_chunks: list = []
        buffer_u: list[int] = []
        buffer_v: list[int] = []

        def flush() -> None:
            if buffer_u:
                src_chunks.append(np.asarray(buffer_u, dtype=np.int64))
                dst_chunks.append(np.asarray(buffer_v, dtype=np.int64))
                buffer_u.clear()
                buffer_v.clear()

        for u, v in edges:
            buffer_u.append(u)
            buffer_v.append(v)
            if len(buffer_u) >= chunk_size:
                flush()
        flush()
        if src_chunks:
            src = np.concatenate(src_chunks)
            dst = np.concatenate(dst_chunks)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        if src.size:
            if bool((src == dst).any()):
                position = int(np.flatnonzero(src == dst)[0])
                raise GraphError(
                    f"self-loop ({int(src[position])}, {int(dst[position])}) "
                    "in the edge stream; the graph is simple"
                )
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= num_nodes:
                raise GraphError(
                    f"edge endpoint outside 0..{num_nodes - 1}: "
                    f"stream spans [{lo}, {hi}]"
                )
        # Both arc directions, sorted by (tail, head) and deduplicated —
        # exactly the rows from_graph emits for the equivalent dict graph.
        tails = np.concatenate([src, dst])
        heads = np.concatenate([dst, src])
        order = np.lexsort((heads, tails))
        tails = tails[order]
        heads = heads[order]
        if tails.size:
            keep = np.empty(len(tails), dtype=bool)
            keep[0] = True
            np.logical_or(
                tails[1:] != tails[:-1], heads[1:] != heads[:-1], out=keep[1:]
            )
            tails = tails[keep]
            heads = heads[keep]
        counts = np.bincount(tails, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, heads)

    @classmethod
    def from_weighted_graph(cls, graph: WeightedGraph):
        """Pack a :class:`WeightedGraph`; returns ``(csr, weights)``.

        ``weights[k]`` is the weight of the arc ``arc_src[k] -> indices[k]``
        (each undirected edge appears as two arcs with equal weight).
        """
        node_of = list(graph.nodes())
        index_of = {node: i for i, node in enumerate(node_of)}
        n = len(node_of)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(node_of):
            indptr[i + 1] = indptr[i] + graph.degree(node)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        weights = np.empty(int(indptr[-1]), dtype=np.float64)
        for i, node in enumerate(node_of):
            row = sorted(
                (index_of[v], w) for v, w in graph.neighbors(node).items()
            )
            lo = int(indptr[i])
            for k, (j, w) in enumerate(row):
                indices[lo + k] = j
                weights[lo + k] = w
        return cls(indptr, indices, node_of, index_of), weights

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def arc_src(self):
        """``int64[2m]`` — arc tails, i.e. ``arc_src[k] -> indices[k]``."""
        if self._arc_src is None:
            degrees = np.diff(self.indptr)
            self._arc_src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), degrees
            )
        return self._arc_src

    @property
    def half_arcs(self):
        """``(positions, tails, heads)`` of the arcs with ``tail < head``.

        One entry per undirected edge, in ascending ``(tail, head)`` order —
        the canonical edge enumeration the candidate-reduction kernels rely
        on for their tie-breaks.
        """
        if self._half_arcs is None:
            positions = np.flatnonzero(self.arc_src < self.indices)
            self._half_arcs = (
                positions,
                self.arc_src[positions],
                self.indices[positions],
            )
        return self._half_arcs

    def indices_for(self, nodes: Iterable[Node]):
        """Map node labels to an ``int64`` index array (raises on unknowns)."""
        try:
            return np.fromiter(
                (self.index_of[v] for v in nodes), dtype=np.int64
            )
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    def labels_for(self, index_array) -> list[Node]:
        """Map an index array back to original node labels."""
        node_of = self.node_of
        return [node_of[int(i)] for i in index_array]

    def arc_weight_position(self, u: int, v: int) -> int:
        """Position ``k`` of arc ``u -> v`` (for indexing a weights array)."""
        lo = int(self.indptr[u])
        hi = int(self.indptr[u + 1])
        k = lo + int(np.searchsorted(self.indices[lo:hi], v))
        if k >= hi or int(self.indices[k]) != v:
            raise GraphError(f"arc {u} -> {v} not present")
        return k

    # ------------------------------------------------------------------
    # Vectorized traversals
    # ------------------------------------------------------------------
    def _expand(self, frontier):
        """Gather all arcs out of ``frontier``; returns ``(heads, tails)``."""
        indptr = self.indptr
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        cumstart = np.cumsum(counts) - counts
        positions = np.repeat(starts - cumstart, counts) + np.arange(
            total, dtype=np.int64
        )
        return self.indices[positions], np.repeat(frontier, counts)

    def bfs_distances(self, source: int):
        """``int64[n]`` of hop distances from ``source``; ``-1`` = unreachable."""
        dist = np.full(self.num_nodes, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            heads, _ = self._expand(frontier)
            heads = heads[dist[heads] < 0]
            if heads.size == 0:
                break
            frontier = np.unique(heads)
            dist[frontier] = level
        return dist

    def bfs_tree(self, source: int):
        """``(dist, parent)`` arrays with *canonical* (min-index) parents.

        ``parent[v]`` is the lowest-index neighbor of ``v`` on the previous
        BFS level (``-1`` for the source and unreachable nodes).  This is
        the tie-break rule the dict traversals mirror via the order map.
        """
        n = self.num_nodes
        dist = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            heads, tails = self._expand(frontier)
            fresh = dist[heads] < 0
            heads, tails = heads[fresh], tails[fresh]
            if heads.size == 0:
                break
            order = np.lexsort((tails, heads))
            heads, tails = heads[order], tails[order]
            frontier, first = np.unique(heads, return_index=True)
            dist[frontier] = level
            parent[frontier] = tails[first]
        return dist, parent

    def multi_source_bfs(self, sources):
        """``(dist, closest)`` arrays; ties pick the lowest-index source."""
        n = self.num_nodes
        dist = np.full(n, -1, dtype=np.int64)
        closest = np.full(n, -1, dtype=np.int64)
        frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
        dist[frontier] = 0
        closest[frontier] = frontier
        level = 0
        while frontier.size:
            level += 1
            heads, tails = self._expand(frontier)
            fresh = dist[heads] < 0
            heads, tails = heads[fresh], tails[fresh]
            if heads.size == 0:
                break
            order = np.lexsort((closest[tails], heads))
            heads, tails = heads[order], tails[order]
            frontier, first = np.unique(heads, return_index=True)
            dist[frontier] = level
            closest[frontier] = closest[tails[first]]
        return dist, closest

    # ------------------------------------------------------------------
    # Distance aggregates
    # ------------------------------------------------------------------
    def rooted_distance_sum(self, source: int) -> float:
        """``Σ_v d(source, v)``; ``inf`` if any node is unreachable."""
        dist = self.bfs_distances(source)
        if bool((dist < 0).any()):
            return float("inf")
        return float(int(dist.sum()))

    def wiener_index(self) -> float:
        """Exact Wiener index; ``inf`` when disconnected, 0 below 2 nodes.

        Distances are tie-free, so any correct engine gives the same
        answer: scipy's C BFS matrix when the graph is small enough for an
        all-pairs matrix, otherwise a loop of vectorized numpy BFS passes.
        """
        n = self.num_nodes
        if n < 2:
            return 0.0
        if n <= _SCIPY_ALL_PAIRS_MAX_NODES:
            matrix = _scipy_csr_matrix(
                (
                    np.ones(len(self.indices), dtype=np.int8),
                    self.indices,
                    self.indptr,
                ),
                shape=(n, n),
            )
            dist = _scipy_shortest_path(
                matrix, method="D", directed=False, unweighted=True
            )
            if bool(np.isinf(dist).any()):
                return float("inf")
            # Entries are exact small integers stored as floats; the sum is
            # exact well past any graph that fits in memory.
            return float(dist.sum()) / 2
        total = 0
        for source in range(n):
            dist = self.bfs_distances(source)
            if bool((dist < 0).any()):
                return float("inf")
            total += int(dist.sum())
        return total / 2

    # ------------------------------------------------------------------
    # Induced subgraphs
    # ------------------------------------------------------------------
    def induced(self, index_array) -> "CSRGraph":
        """The induced sub-CSR on ``index_array`` (need not be sorted).

        Sub-indices follow the *sorted* order of ``index_array`` so the
        canonical (ascending) adjacency order is preserved; ``node_of``
        maps sub-indices back to the original labels.
        """
        idx = np.unique(np.asarray(index_array, dtype=np.int64))
        sub_id = np.full(self.num_nodes, -1, dtype=np.int64)
        sub_id[idx] = np.arange(len(idx), dtype=np.int64)
        heads, tails = self._expand(idx)
        keep = sub_id[heads] >= 0
        sub_heads = sub_id[heads[keep]]
        sub_tails = sub_id[tails[keep]]
        counts = np.bincount(sub_tails, minlength=len(idx))
        indptr = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        node_of = self.labels_for(idx)
        return CSRGraph(indptr, sub_heads, node_of)

    def to_graph(self) -> Graph:
        """Materialize the equivalent dict :class:`Graph` (labels preserved).

        Nodes are added in index (= canonical) order, so
        ``CSRGraph.from_graph(csr.to_graph())`` round-trips to the same
        arrays.  Intended for *small* CSRs — result hosts, induced
        subgraphs — not for a million-node instance (whose whole point is
        never materializing the dict form).
        """
        graph = Graph(nodes=self.node_of)
        node_of = self.node_of
        positions, tails, heads = self.half_arcs
        del positions
        for tail, head in zip(tails.tolist(), heads.tolist()):
            graph.add_edge(node_of[tail], node_of[head])
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"CSRGraph(|V|={self.num_nodes}, |E|={self.num_edges})"



def order_map(graph: Graph | WeightedGraph) -> dict[Node, int]:
    """The canonical node → index map (insertion order), without arrays.

    This is the exact relabeling :meth:`CSRGraph.from_graph` uses; the
    dict code paths use it to apply the same integer tie-breaks the CSR
    kernels get for free.
    """
    return {node: i for i, node in enumerate(graph.nodes())}
