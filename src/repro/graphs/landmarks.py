"""Landmark-based approximate distances (a lightweight distance oracle).

Section 6.6 notes that when the graph does not fit in memory one must fall
back on parallel or *approximate* shortest-distance computation (citing
Thorup–Zwick-style distance oracles).  This module provides the standard
practical variant: shortest-path tables from ``k`` landmark vertices,
estimating

``d(u, v) ≈ min_l  d(u, l) + d(l, v)``

which is always an upper bound (triangle inequality) and exact whenever
some landmark lies on a shortest ``u``-``v`` path.  High-degree landmark
selection works well on the heavy-tailed graphs the paper evaluates,
because hubs lie on many shortest paths.

The tables are **weight-aware**: on a :class:`~repro.graphs.graph.Graph`
(or a :class:`~repro.graphs.graph.WeightedGraph` whose weights are all
``1``) each landmark's table is a BFS hop count; on a genuinely weighted
graph it is a Dijkstra distance table.  This is what makes
:meth:`estimate` / :meth:`lower_bound` *provable* bounds on the true
shortest-path metric in both regimes — an earlier revision silently ran
unweighted BFS on weighted inputs, so its "bounds" could fall on the
wrong side of the truth, which would poison any pruning built on them.

The oracle also powers a fast Wiener-index estimator for very large
subgraphs, complementing the sampling estimator of
:mod:`repro.graphs.wiener`.

The unweighted tables are built with the CSR array BFS on large graphs
(or on a prebuilt :class:`~repro.graphs.csr.CSRGraph` passed in by the
caller — :class:`repro.core.service.ConnectorService` shares its serving
arrays this way), holding exactly the distances the dict BFS would
produce.  A CSR-only construction (``graph=None``) is supported so that
graph-less shard replicas, which receive nothing but the int arrays, can
still host an index.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node, WeightedGraph
from repro.graphs.traversal import bfs_distances, dijkstra


class LandmarkIndex:
    """Precomputed shortest-path distances from a set of landmark vertices.

    Parameters
    ----------
    graph:
        The host graph — a :class:`Graph` or a :class:`WeightedGraph`.
        May be ``None`` when a prebuilt ``csr`` is given (graph-less shard
        replicas build their index straight from the serving arrays).
    num_landmarks:
        How many landmarks to select (clamped to ``|V|``).
    strategy:
        ``"degree"`` (default) picks the highest-degree vertices — the
        best single heuristic on scale-free graphs; ``"random"`` samples
        uniformly.
    rng:
        Randomness for the ``"random"`` strategy.
    csr:
        An optional prebuilt :class:`~repro.graphs.csr.CSRGraph` of
        ``graph`` to run the landmark BFS passes on (the serving layer
        hands its shared arrays here).  When omitted, a CSR view is built
        on the fly for large unweighted graphs; either way the
        tables hold the same distances the dict traversal would produce.
        Ignored for table building on weighted graphs (hop counts are not
        distances there); weighted tables always come from Dijkstra.

    Examples
    --------
    >>> from repro.graphs.generators import path_graph
    >>> index = LandmarkIndex(path_graph(10), num_landmarks=2)
    >>> index.estimate(0, 9) >= 9
    True
    """

    #: Graphs at least this large run their landmark BFS on CSR arrays.
    CSR_THRESHOLD = 128

    def __init__(
        self,
        graph: Graph | WeightedGraph | None = None,
        num_landmarks: int = 16,
        strategy: str = "degree",
        rng: random.Random | None = None,
        csr=None,
    ) -> None:
        if num_landmarks < 1:
            raise GraphError("need at least one landmark")
        if strategy not in ("degree", "random"):
            raise GraphError(f"unknown landmark strategy {strategy!r}")
        if graph is None and csr is None:
            raise GraphError("LandmarkIndex needs a graph or a CSRGraph")
        self._graph = graph
        self._csr = csr
        # Weight-aware table dispatch: a WeightedGraph whose weights are
        # all exactly 1 is metrically an unweighted graph, so it keeps the
        # (cheaper, integer) BFS tables; any other weighted graph gets
        # Dijkstra tables.  Hop counts on a weighted graph are neither an
        # upper nor a lower bound on the metric, so they are never used
        # there.
        self._weighted = isinstance(graph, WeightedGraph) and any(
            w != 1 for _, _, w in graph.edges()
        )
        if graph is not None:
            nodes = list(graph.nodes())
            degree_of = graph.degree
        else:
            nodes = list(csr.node_of)
            indptr = csr.indptr
            index_of = csr.index_of
            degree_of = lambda node: int(
                indptr[index_of[node] + 1] - indptr[index_of[node]]
            )
        self._nodes = nodes
        num_landmarks = min(num_landmarks, len(nodes))
        if strategy == "degree":
            ranked = sorted(nodes, key=lambda node: (-degree_of(node), repr(node)))
            self.landmarks: list[Node] = ranked[:num_landmarks]
        else:
            rng = rng or random.Random(0)
            self.landmarks = rng.sample(nodes, num_landmarks)
        if (
            not self._weighted
            and csr is None
            and graph is not None
            and not isinstance(graph, WeightedGraph)
            and graph.num_nodes >= self.CSR_THRESHOLD
        ):
            csr = CSRGraph.from_graph(graph)
        self._tables: dict[Node, dict[Node, float]] = {
            landmark: self._table(landmark, csr) for landmark in self.landmarks
        }
        # The (k, n) float64 distance matrix behind the vectorized
        # estimate_many / lower_bound_many; built lazily on first use.
        self._matrix = None
        self._column_of: dict[Node, int] | None = None

    def _table(self, landmark: Node, csr) -> dict[Node, float]:
        """One landmark's distance table, on arrays when available."""
        if self._weighted:
            distances, _ = dijkstra(self._graph, landmark)
            return distances
        if csr is None:
            if isinstance(self._graph, WeightedGraph):
                # Unit-weight WeightedGraph: hop counts are the metric.
                distances, _ = dijkstra(self._graph, landmark)
                return {node: int(d) for node, d in distances.items()}
            return bfs_distances(self._graph, landmark)
        dist = csr.bfs_distances(csr.index_of[landmark])
        node_of = csr.node_of
        return {
            node_of[i]: int(d) for i, d in enumerate(dist.tolist()) if d >= 0
        }

    # ------------------------------------------------------------------
    # Scalar bounds
    # ------------------------------------------------------------------
    def estimate(self, u: Node, v: Node) -> float:
        """Upper-bound estimate of ``d(u, v)``.

        Returns ``math.inf`` — never raises — when ``u`` or ``v`` is
        unreachable from every landmark (disconnected graphs, vertices in
        landmark-less components): infinity *is* the correct upper bound
        there, and consumers like :meth:`wiener_estimate` propagate it
        arithmetically instead of special-casing missing tables.
        """
        if u == v:
            return 0.0
        best = math.inf
        for table in self._tables.values():
            du = table.get(u)
            dv = table.get(v)
            if du is not None and dv is not None:
                best = min(best, float(du + dv))
        return best

    def lower_bound(self, u: Node, v: Node) -> float:
        """Lower-bound estimate ``max_l |d(u,l) - d(l,v)|`` (also from the
        triangle inequality)."""
        if u == v:
            return 0.0
        best = 0.0
        for table in self._tables.values():
            du = table.get(u)
            dv = table.get(v)
            if du is not None and dv is not None:
                best = max(best, float(abs(du - dv)))
        return best

    # ------------------------------------------------------------------
    # Vectorized bounds
    # ------------------------------------------------------------------
    def _distance_matrix(self):
        """The lazily built ``(k, n)`` float64 table matrix.

        Row ``i`` holds landmark ``i``'s distances over every node column
        (``inf`` where the landmark does not reach the node) — the exact
        content of the dict tables, so the vectorized bounds below return
        the same floats as the scalar loops, bit for bit.
        """
        if self._matrix is not None:
            return self._matrix
        if self._column_of is None:
            self._column_of = {node: i for i, node in enumerate(self._nodes)}
        matrix = np.full((len(self.landmarks), len(self._nodes)), np.inf)
        for row, landmark in enumerate(self.landmarks):
            table = self._tables[landmark]
            for node, distance in table.items():
                matrix[row, self._column_of[node]] = distance
        self._matrix = matrix
        return matrix

    def estimate_many(self, pairs: Iterable[tuple[Node, Node]]) -> list[float]:
        """Vector form of :meth:`estimate` — one ``(k, p)`` array pass.

        Returns exactly what ``[self.estimate(u, v) for u, v in pairs]``
        returns: missing table entries contribute ``inf`` to the column minimum,
        which is precisely the scalar loop's skip-and-default behavior,
        and ``u == v`` columns are pinned to ``0.0`` before the reduction.
        """
        pair_list = list(pairs)
        if not pair_list:
            return []
        matrix = self._distance_matrix()
        column_of = self._column_of
        us = np.fromiter(
            (column_of[u] for u, _ in pair_list), dtype=np.int64,
            count=len(pair_list),
        )
        vs = np.fromiter(
            (column_of[v] for _, v in pair_list), dtype=np.int64,
            count=len(pair_list),
        )
        sums = matrix[:, us] + matrix[:, vs]
        best = sums.min(axis=0)
        best[us == vs] = 0.0
        return [float(value) for value in best]

    def lower_bound_many(self, pairs: Iterable[tuple[Node, Node]]) -> list[float]:
        """Vector form of :meth:`lower_bound`, pinned to the scalar path.

        A landmark missing either endpoint is excluded from the maximum
        (``inf - finite`` would otherwise fabricate an infinite "lower
        bound"); with no covering landmark the trivial ``0.0`` stands,
        exactly as in the scalar loop.
        """
        pair_list = list(pairs)
        if not pair_list:
            return []
        matrix = self._distance_matrix()
        column_of = self._column_of
        us = np.fromiter(
            (column_of[u] for u, _ in pair_list), dtype=np.int64,
            count=len(pair_list),
        )
        vs = np.fromiter(
            (column_of[v] for _, v in pair_list), dtype=np.int64,
            count=len(pair_list),
        )
        left = matrix[:, us]
        right = matrix[:, vs]
        valid = np.isfinite(left) & np.isfinite(right)
        # Zero-fill non-finite entries *before* subtracting: the masked
        # positions are discarded anyway, and ``inf - inf`` would emit a
        # spurious invalid-value warning on the way to the mask.
        gaps = np.where(valid, np.abs(np.where(valid, left, 0.0)
                                      - np.where(valid, right, 0.0)), 0.0)
        best = gaps.max(axis=0) if len(self.landmarks) else np.zeros(len(pair_list))
        best[us == vs] = 0.0
        return [float(value) for value in best]

    # ------------------------------------------------------------------
    # Wiener triage
    # ------------------------------------------------------------------
    def wiener_estimate(
        self,
        nodes: Iterable[Node] | None = None,
        sample_pairs: int | None = None,
        rng: random.Random | None = None,
    ) -> float:
        """Approximate the Wiener index of ``G[nodes]`` from the oracle.

        Uses host-graph estimates — an upper bound made of lower-boundable
        parts; intended for quick triage of very large candidate solutions
        (the Remark-1 situation), not for final reporting.  With
        ``sample_pairs`` set, estimates from a uniform pair sample.

        Inherits :meth:`estimate`'s unreachable-pair contract: any pair
        separated from every landmark contributes ``math.inf``, so the
        returned estimate is ``inf`` (a true upper bound) rather than an
        error — disconnected node sets are triaged as "unboundedly bad",
        never crash the sweep.
        """
        node_list = list(nodes) if nodes is not None else list(self._nodes)
        n = len(node_list)
        if n < 2:
            return 0.0
        total_pairs = n * (n - 1) // 2
        rng = rng or random.Random(0)
        if sample_pairs is not None and sample_pairs < total_pairs:
            total = 0.0
            for _ in range(sample_pairs):
                u, v = rng.sample(node_list, 2)
                total += self.estimate(u, v)
            return total / sample_pairs * total_pairs
        pairs = [
            (u, v)
            for i, u in enumerate(node_list)
            for v in node_list[i + 1 :]
        ]
        return float(sum(self.estimate_many(pairs)))

    def __len__(self) -> int:
        return len(self.landmarks)

    def __repr__(self) -> str:
        # len(self.landmarks) is the *post-clamp* landmark count: asking
        # for more landmarks than the graph has vertices reports what was
        # actually built, not what was requested.
        num_nodes = (
            self._graph.num_nodes if self._graph is not None
            else self._csr.num_nodes
        )
        return (
            f"{type(self).__name__}(landmarks={len(self.landmarks)}, "
            f"graph=|V|={num_nodes})"
        )
