"""CSR engine for WienerSteiner — the array implementation of Algorithm 1.

The seed implementation rebuilt a hashable-node ``WeightedGraph`` for every
``(root, λ)`` Steiner instance and ran every traversal as dict/deque BFS.
This module keeps a single :class:`~repro.graphs.csr.CSRGraph` for the
whole sweep and replaces each inner loop with array operations:

* line 1 of Algorithm 1 (one BFS per candidate root) uses the vectorized
  frontier BFS of :meth:`CSRGraph.bfs_tree`, cached per root;
* the Lemma-4 reweighting ``w(u,v) = λ + max(d_r(u), d_r(v))/λ`` becomes a
  single vectorized expression over a per-root ``max(d_r[u], d_r[v])`` arc
  array — one numpy line per λ instead of ``O(|E|)`` dict inserts per
  ``(root, λ)`` pair;
* Mehlhorn phase 1 (:func:`mehlhorn_steiner_csr`) takes distances from
  scipy's C Dijkstra, rebuilds the canonical Voronoi forest from them with
  two scatter-mins and pointer doubling, and reduces the crossing edges
  to one candidate per terminal pair with a scatter-min over the
  compacted crossing arcs — nothing in phase 1 sorts;
* candidate scoring reuses the CSR structure through
  :meth:`CSRGraph.induced` index masks instead of ``graph.subgraph``
  rebuilds.

Tie-breaking everywhere is by the relabeled integer index, and phases 2–3
of Mehlhorn are shared code
(:func:`repro.core.steiner.steiner_tree_from_voronoi`), so the engine
returns the *same connector* as the dict reference oracle
(:func:`repro.core.reference.reference_wiener_steiner`), one to two
orders of magnitude faster on large graphs.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.core.adjust import adjust_distances
from repro.core.lru import LRUCache
from repro.core.steiner import steiner_tree_from_voronoi
from repro.errors import GraphError, InvalidQueryError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node, WeightedGraph

__all__ = ["CSRWienerSteinerEngine", "mehlhorn_steiner_csr"]


def _voronoi_phase(csr: CSRGraph, weights, terminals, matrix=None):
    """Mehlhorn phase 1: distances from scipy's C Dijkstra, then the forest.

    Weights must be strictly positive (every ``G_{r,λ}`` instance
    qualifies: ``w ≥ λ > 0``, and :class:`~repro.core.options.SolveOptions`
    rejects λ ≤ 0).  Then only the *distances* need a Dijkstra — the
    canonical ``(parent, closest)`` are a pure function of the distance
    array (:func:`_voronoi_from_distances`), and the float min-plus
    fixpoint is unique, so scipy returns the bits the dict oracle's heap
    loop does.
    """
    n = csr.num_nodes
    if matrix is not None:
        # A persistent caller (the engine) hands us a preassembled matrix
        # over the same (indptr, indices); only the weight buffer changes
        # between candidates, so skip scipy's construction-time
        # validation and just overwrite the data.
        matrix.data[:] = weights
    else:
        matrix = _scipy_csr_matrix((weights, csr.indices, csr.indptr), shape=(n, n))
    dist_arr = _scipy_dijkstra(matrix, directed=True, indices=terminals, min_only=True)
    parent, closest = _voronoi_from_distances(csr, weights, dist_arr, terminals)
    return dist_arr, parent, closest


def _voronoi_from_distances(csr: CSRGraph, weights, dist_arr, terminals):
    """The canonical Voronoi forest as a pure function of exact distances.

    A node's parent is the *tight* inbound neighbor — ``dist[u] + w(u, v)
    == dist[v]``, bit-exact — minimizing ``(dist[u], u)``; ``closest`` is
    the root of the resulting forest (every root is a source, because
    strictly positive weights force ``dist[parent] < dist[child]``).  The
    dict oracle applies the same rule edge by edge
    (:func:`repro.core.steiner.canonical_forest_from_distances`).

    Nothing sorts.  Two scatter-mins over the tight arcs pick the parent:
    the first finds each head's smallest tail distance (float ``min`` is
    exact), the second the smallest tail index among the tails at exactly
    that distance.  Pointer doubling then finds the roots.  Returns
    ``(parent, closest)`` as ``int64`` arrays with ``-1`` for none.
    """
    # Gathers use ``take`` on index arrays: numpy's boolean-mask indexing
    # is several times slower at these sizes.
    src = csr.arc_src
    dst = csr.indices
    num_nodes = csr.num_nodes
    reached = dist_arr.take(src)
    reached += weights
    head_dist = dist_arr.take(dst)
    tight = reached == head_dist
    finite = np.isfinite(dist_arr)
    if not bool(finite.all()):
        # ``inf + w == inf``: drop arcs into unreached heads.  A finite
        # head distance can only be met through a finite tail distance
        # and a finite weight, so the head test suffices.
        tight &= finite.take(dst)
    tight = np.flatnonzero(tight)
    tail = src.take(tight)
    head = dst.take(tight)
    tail_dist = dist_arr.take(tail)
    best_dist = np.full(num_nodes, np.inf)
    np.minimum.at(best_dist, head, tail_dist)
    winner = np.flatnonzero(tail_dist == best_dist.take(head))
    parent = np.full(num_nodes, num_nodes, dtype=np.int64)
    np.minimum.at(parent, head.take(winner), tail.take(winner))
    parent[parent == num_nodes] = -1
    # Sources never have tight inbound arcs (w > 0), but pin them anyway.
    parent[terminals] = -1
    jump = np.where(parent >= 0, parent, np.arange(num_nodes, dtype=np.int64))
    while True:
        doubled = jump.take(jump)
        if np.array_equal(doubled, jump):
            break
        jump = doubled
    closest = jump
    closest[~finite] = -1
    return parent, closest


def _crossing_candidates(
    csr: CSRGraph,
    weights,
    dist,
    closest,
    terminals,
) -> dict[tuple[int, int], tuple[float, int, int]]:
    """Best crossing edge per terminal pair, via a scatter-min over arcs.

    Matches the dict Mehlhorn's per-key minimum of
    ``(length, min endpoint, max endpoint)`` exactly.  The half arcs
    (``lo < hi``, one per edge, in CSR order, which *is* ascending
    ``(lo, hi)``) are first compacted to the ones whose endpoints lie in
    two different regions; only those gather weights and distances.
    Lengths are always evaluated as ``dist[lo] + w + dist[hi]`` (bit-identical
    floats), ``np.minimum.at`` finds the exact minimum length per
    terminal pair, and length ties fall to the first matching arc in
    that order — the canonical tie-break.
    """
    positions, tails, heads = csr.half_arcs
    source_a = closest.take(tails)
    source_b = closest.take(heads)
    crossing = np.flatnonzero(
        (source_a != source_b) & (source_a >= 0) & (source_b >= 0)
    )
    half_weights = weights.take(positions.take(crossing))
    finite = np.isfinite(half_weights)
    if not bool(finite.all()):
        crossing = crossing[finite]
        half_weights = half_weights[finite]
    if not crossing.size:
        return {}
    lo = tails.take(crossing)
    hi = heads.take(crossing)
    lengths = dist.take(lo) + half_weights + dist.take(hi)
    # Map the source labels (node indices) to 0..t-1 terminal slots so the
    # scatter-min target stays tiny; ``terminals`` is sorted, so the lower
    # slot holds the lower terminal.
    num_terminals = len(terminals)
    slot = np.empty(csr.num_nodes, dtype=np.int64)
    slot[terminals] = np.arange(num_terminals, dtype=np.int64)
    slot_a = slot.take(source_a.take(crossing))
    slot_b = slot.take(source_b.take(crossing))
    slot_lo = np.minimum(slot_a, slot_b)
    slot_hi = np.maximum(slot_a, slot_b)
    pair_key = slot_lo * num_terminals + slot_hi
    if num_terminals**2 <= 1 << 22:
        min_length = np.full(num_terminals**2, np.inf)
    else:
        # Huge terminal sets: a dense |T|^2 scatter-min target would be
        # gigabytes; compact to the pairs actually present instead.
        unique_keys, pair_key = np.unique(pair_key, return_inverse=True)
        min_length = np.full(len(unique_keys), np.inf)
    np.minimum.at(min_length, pair_key, lengths)
    best = np.flatnonzero(lengths <= min_length[pair_key])
    candidates: dict[tuple[int, int], tuple[float, int, int]] = {}
    for a, b, length, u, v in zip(
        terminals[slot_lo[best]].tolist(),
        terminals[slot_hi[best]].tolist(),
        lengths[best].tolist(),
        lo[best].tolist(),
        hi[best].tolist(),
    ):
        if (a, b) not in candidates:
            candidates[a, b] = (length, u, v)
    return candidates


def mehlhorn_steiner_csr(
    csr: CSRGraph,
    weights,
    terminal_indices: Iterable[int],
    matrix=None,
) -> tuple[list[int], list[tuple[int, int]]]:
    """Mehlhorn's 2-approximation consuming ``(indptr, indices, weights)``.

    Returns ``(nodes, edges)`` of the pruned Steiner tree in index space —
    identical to what :func:`repro.core.steiner.mehlhorn_steiner_tree`
    returns (after relabeling) on the equivalent ``WeightedGraph``.
    ``weights`` must be strictly positive.  ``matrix`` lets callers reuse
    a preassembled scipy matrix whose data buffer is overwritten with
    ``weights`` (the engine does).

    Raises
    ------
    InvalidQueryError
        If the terminal set is empty or holds an index outside
        ``0..n-1``.
    DisconnectedGraphError
        If the terminals do not lie in a single component.
    """
    requested = [int(t) for t in terminal_indices]
    if not requested:
        raise InvalidQueryError("terminal set must be non-empty")
    for terminal in requested:
        if not 0 <= terminal < csr.num_nodes:
            raise InvalidQueryError(f"terminal {terminal!r} not in graph")
    terminals = sorted(set(requested))
    if len(terminals) == 1:
        return terminals, []
    if len(weights) and not float(weights.min()) > 0.0:
        raise GraphError("mehlhorn_steiner_csr needs strictly positive weights")
    terminals_arr = np.asarray(terminals, dtype=np.int64)
    dist, parent, closest = _voronoi_phase(csr, weights, terminals_arr, matrix)
    candidates = _crossing_candidates(csr, weights, dist, closest, terminals_arr)
    return steiner_tree_from_voronoi(
        terminals,
        candidates,
        parent.item,
        lambda a, b: float(weights[csr.arc_weight_position(a, b)]),
    )


class _IntArrayMapping:
    """Read-only ``Mapping[int, int]`` view of an int array with ``-1`` = absent."""

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        self._values = values

    def get(self, key: int, default=None):
        value = self._values[key]
        return int(value) if value >= 0 else default

    def __getitem__(self, key: int) -> int:
        value = self._values[key]
        if value < 0:
            raise KeyError(key)
        return int(value)

    def __contains__(self, key: int) -> bool:
        return self._values[key] >= 0


class _IndexHost:
    """The minimal host-graph facade :func:`adjust_distances` needs."""

    __slots__ = ("_num_nodes",)

    def __init__(self, num_nodes: int) -> None:
        self._num_nodes = num_nodes

    def has_node(self, node) -> bool:
        return isinstance(node, int) and 0 <= node < self._num_nodes


class CSRWienerSteinerEngine:
    """The engine behind ``wiener_steiner`` and every serving path.

    Holds the CSR arrays, the per-root BFS caches (distances, canonical
    parents, and the per-arc ``max(d_r[u], d_r[v])`` used by the Lemma-4
    reweighting), and the scoring kernels.  A one-shot ``wiener_steiner``
    call builds a throwaway engine for its single λ×root sweep;
    :class:`repro.core.service.ConnectorService` keeps one alive across
    many queries so the CSR arrays and root BFS data amortize.

    Parameters
    ----------
    graph:
        The host :class:`~repro.graphs.graph.Graph`; may be omitted when a
        prebuilt ``csr`` is supplied (shard replicas do this — they
        receive only the int arrays, never a pickled graph).
    csr:
        A prebuilt :class:`~repro.graphs.csr.CSRGraph` to adopt instead of
        packing ``graph`` again.
    max_cached_roots:
        LRU bound on the per-root BFS cache (each entry holds ``O(|V| +
        |E|)`` arrays); ``None`` (default) means unbounded — right for a
        single sweep, wrong for a long-lived service.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        csr: CSRGraph | None = None,
        max_cached_roots: int | None = None,
    ) -> None:
        if graph is None and csr is None:
            raise ValueError("need a graph or a prebuilt CSRGraph")
        self.graph = graph
        self.csr = csr if csr is not None else CSRGraph.from_graph(graph)
        self._root_cache = LRUCache(max_cached_roots)
        self._matrix = None

    def _scipy_matrix(self):
        """A reusable scipy matrix over the CSR structure (weights buffer
        overwritten per candidate)."""
        if self._matrix is None:
            n = self.csr.num_nodes
            self._matrix = _scipy_csr_matrix(
                (
                    np.ones(len(self.csr.indices), dtype=np.float64),
                    self.csr.indices,
                    self.csr.indptr,
                ),
                shape=(n, n),
            )
        return self._matrix

    # -- line 1: per-root BFS cache -----------------------------------
    def _root_data(self, root: Node):
        cached = self._root_cache.get(root)
        if cached is None:
            root_idx = self.csr.index_of[root]
            dist, parent = self.csr.bfs_tree(root_idx)
            arc_max = np.maximum(dist[self.csr.arc_src], dist[self.csr.indices])
            cached = (dist, parent, arc_max)
            self._root_cache.put(root, cached)
        return cached

    @property
    def cached_roots(self) -> int:
        """How many root BFS entries are currently cached."""
        return len(self._root_cache)

    def apply_delta(self, delta, new_csr: CSRGraph) -> tuple[int, int]:
        """Rebase onto post-delta arrays with scoped root-cache invalidation.

        Adopts ``new_csr`` (dropping the scipy matrix derived from the old
        arrays), then decides each cached root entry's fate from its
        *pre-delta* ``dist`` array and the delta.  An entry survives only
        when the delta **provably** preserves its BFS tree:

        * insert ``(u, v)`` with both endpoints unreachable from the root
          — the edge joins components the root never sees;
        * insert with equal distances — a same-level edge lies on no
          shortest path and previous-level neighbor sets are untouched;
        * insert with distances differing by exactly 1 — distances are
          preserved (a shortcut needs a gap ≥ 2), and the single possible
          parent change (the deeper endpoint gaining a lower-index
          previous-level neighbor) is fixed up in place;
        * delete with both endpoints unreachable, or with a distance gap
          ≠ 1 — shortest paths only use gap-1 edges, so no current
          shortest path (and no canonical parent edge) is lost.

        Everything else may move distances or parents, so the entry is
        evicted; a delta that changes the node set evicts every entry.
        Retained entries keep their ``(dist, parent)``
        arrays (with the gap-1 insert parent fix-up applied) and get
        their per-arc ``max`` array recomputed against the new arc
        layout — the exact expression a cold BFS would evaluate, over
        provably identical distances.  Returns ``(retained, evicted)``.
        """
        old_num_nodes = self.csr.num_nodes
        self.csr = new_csr
        self._matrix = None
        if new_csr.num_nodes != old_num_nodes:
            return 0, self._root_cache.clear()
        index_of = new_csr.index_of
        ins = [(index_of[u], index_of[v]) for u, v in delta.inserts]
        dels = [(index_of[u], index_of[v]) for u, v in delta.deletes]
        arc_src = new_csr.arc_src
        arc_dst = new_csr.indices
        retained = evicted = 0
        for root in self._root_cache.keys():
            dist, parent, _stale_arc_max = self._root_cache.peek(root)
            safe = True
            fixups: list[tuple[int, int]] = []
            for iu, iv in ins:
                du = int(dist[iu])
                dv = int(dist[iv])
                if du < 0 and dv < 0:
                    continue
                if du < 0 or dv < 0:
                    safe = False
                    break
                gap = du - dv
                if gap == 0:
                    continue
                if abs(gap) == 1:
                    deep, shallow = (iu, iv) if gap > 0 else (iv, iu)
                    fixups.append((deep, shallow))
                    continue
                safe = False
                break
            if safe:
                for iu, iv in dels:
                    du = int(dist[iu])
                    dv = int(dist[iv])
                    if du < 0 and dv < 0:
                        continue
                    if du < 0 or dv < 0 or abs(du - dv) == 1:
                        safe = False
                        break
            if not safe:
                self._root_cache.pop(root)
                evicted += 1
                continue
            for deep, shallow in fixups:
                if shallow < int(parent[deep]):
                    parent[deep] = shallow
            arc_max = np.maximum(dist[arc_src], dist[arc_dst])
            self._root_cache.replace(root, (dist, parent, arc_max))
            retained += 1
        return retained, evicted

    def unreachable_queries(self, root: Node, query_set) -> list[Node]:
        dist = self._root_data(root)[0]
        index_of = self.csr.index_of
        return [q for q in query_set if dist[index_of[q]] < 0]

    # -- lines 7-11: candidates for one root across the λ grid --------
    def candidates_for_root(
        self, root: Node, lams, query_set, adjust: bool
    ) -> list[frozenset[Node]]:
        """Lines 7–11 for one root across a λ batch, one vectorized pass.

        The whole grid's Lemma-4 weight rows are produced by a single
        broadcast ``λ[:, None] + arc_max[None, :] / λ[:, None]`` — the
        same elementwise float64 divide-and-add a single λ evaluates, so
        row ``i`` equals the single-λ weight array bit for bit — and the
        unreachable-arc mask, terminal index set, and root lookup are
        computed once instead of per λ.  Arcs inside components
        unreachable from the root get weight ``+inf``: the dict oracle
        omits them from ``G_{r,λ}``.
        """
        dist, parent, arc_max = self._root_data(root)
        lam_arr = np.asarray(list(lams), dtype=np.float64)
        weight_rows = lam_arr[:, None] + arc_max[None, :] / lam_arr[:, None]
        if bool((arc_max < 0).any()):
            weight_rows = np.where(
                arc_max[None, :] < 0, np.inf, weight_rows
            )
        index_of = self.csr.index_of
        terminals = sorted({index_of[q] for q in query_set} | {index_of[root]})
        root_idx = index_of[root]
        return [
            self._candidate_from_weights(
                weight_rows[i], dist, parent, terminals, query_set, adjust,
                root_idx,
            )
            for i in range(len(lam_arr))
        ]

    def _candidate_from_weights(
        self, weights, dist, parent, terminals, query_set, adjust: bool,
        root_idx: int,
    ) -> frozenset[Node]:
        tree_nodes, tree_edges = mehlhorn_steiner_csr(
            self.csr, weights, terminals, matrix=self._scipy_matrix()
        )
        if adjust:
            # Rebuild the (small) tree with dict adjacency in canonical
            # insertion order so AdjustDistances walks it exactly like the
            # dict oracle walks its label-space twin.
            tree = WeightedGraph()
            for idx in tree_nodes:
                tree.add_node(idx)
            for a, b in tree_edges:
                tree.add_edge(a, b, 1.0)
            adjusted = adjust_distances(
                _IndexHost(self.csr.num_nodes),
                tree,
                root_idx,
                bfs_distances_map=_IntArrayMapping(dist),
                bfs_parents_map=_IntArrayMapping(parent),
            )
            node_indices = set(adjusted.nodes())
        else:
            node_indices = set(tree_nodes)
        node_of = self.csr.node_of
        nodes = {node_of[i] for i in node_indices}
        nodes |= query_set
        return frozenset(nodes)

    # -- pruning primitives (exact integer data for the certified bounds)
    def host_distances(self, root: Node, nodes) -> list[int]:
        """Exact host BFS distances from ``root`` to each of ``nodes``.

        Raises on an unreachable node (distance ``-1``) — the sweep only
        asks about root-reachable vertices, so silence here would mask a
        pruning-soundness bug.
        """
        dist = self._root_data(root)[0]
        index_of = self.csr.index_of
        values = [int(dist[index_of[node]]) for node in nodes]
        if any(value < 0 for value in values):
            raise KeyError(f"node unreachable from root {root!r}")
        return values

    def induced_edge_count(self, nodes) -> int:
        """``|E(G[nodes])|`` by membership-filtered adjacency slices."""
        member_idx = np.sort(self.csr.indices_for(nodes))
        if member_idx.size < 2:
            return 0
        indptr = self.csr.indptr
        indices = self.csr.indices
        slices = [
            indices[int(indptr[i]) : int(indptr[i + 1])]
            for i in member_idx.tolist()
        ]
        neighbors = np.concatenate(slices) if slices else indices[:0]
        if neighbors.size == 0:
            return 0
        positions = np.searchsorted(member_idx, neighbors)
        positions[positions >= member_idx.size] = 0
        degree_sum = int((member_idx[positions] == neighbors).sum())
        return degree_sum // 2

    # -- line 15: scoring via induced index masks ---------------------
    def score_exact(self, nodes) -> float:
        return self.csr.induced(self.csr.indices_for(nodes)).wiener_index()

    def score_proxy(self, nodes, root: Node) -> float:
        sub = self.csr.induced(self.csr.indices_for(nodes))
        return len(nodes) * sub.rooted_distance_sum(sub.index_of[root])

    def score_sampled(self, nodes, num_sources: int, seed: int) -> float:
        """Remark-1 sampled Wiener estimate of ``G[nodes]`` on the arrays.

        Sources are drawn as *positions* into the canonically sorted node
        list (ascending relabeled index) with ``random.Random(seed)``, the
        same rule the dict oracle applies, so both estimate from identical
        sources and the integer distance sums agree bit-for-bit.
        """
        sub = self.csr.induced(self.csr.indices_for(nodes))
        n = sub.num_nodes
        if n < 2:
            return 0.0
        if num_sources >= n:
            return sub.wiener_index()
        positions = random.Random(seed).sample(range(n), num_sources)
        total = 0
        for position in positions:
            dist = sub.bfs_distances(position)
            if bool((dist < 0).any()):
                return math.inf
            total += int(dist.sum())
        return (total / num_sources) * n / 2
