"""The dict reference oracle of Algorithm 1 — test and benchmark use only.

Serving runs on one engine, :class:`repro.core.fastpath.CSRWienerSteinerEngine`.
This module keeps the seed implementation beside it as an independent
check: hashable-node dict adjacency, a fresh reweighted ``WeightedGraph``
per ``(root, λ)`` instance, heap Dijkstra, dict BFS.  Tie-breaks are
canonicalized through :func:`repro.graphs.csr.order_map`, so
:func:`reference_wiener_steiner` must return the *same* connector, root
and λ as the serving path — the property tests and ``bench_backend.py``
assert this on random corpora.

The λ×root loop here has no caches and no pruning, so its ``candidates``
count equals a serving sweep's only when that sweep runs ``prune=False``.
No serving module imports this one.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Iterable

from repro.core.adjust import adjust_distances
from repro.core.options import SolveOptions
from repro.core.result import ConnectorResult
from repro.core.service import _root_list
from repro.core.steiner import mehlhorn_steiner_tree
from repro.core.wiener_steiner import _lambda_grid, _score, _validate_query
from repro.errors import DisconnectedGraphError
from repro.graphs.csr import order_map
from repro.graphs.graph import Graph, Node, WeightedGraph
from repro.graphs.traversal import bfs_distances, bfs_tree_canonical
from repro.graphs.wiener import rooted_distance_sum, wiener_index

__all__ = ["reference_wiener_steiner"]


class _DictEngine:
    """The pure-Python engine: per-root BFS, candidates, and scores."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._order = order_map(graph)
        self._root_data_by_root: dict = {}

    def _root_data(self, root: Node) -> tuple[dict, dict]:
        cached = self._root_data_by_root.get(root)
        if cached is None:
            cached = bfs_tree_canonical(self.graph, root, self._order)
            self._root_data_by_root[root] = cached
        return cached

    def unreachable_queries(self, root: Node, query_set) -> list[Node]:
        distances = self._root_data(root)[0]
        return [q for q in query_set if q not in distances]

    def candidates_for_root(
        self, root: Node, lams, query_set, adjust: bool
    ) -> list[frozenset[Node]]:
        """Lines 7–11 of Algorithm 1 for one root across a λ batch.

        One pass extracts the per-arc ``max(d_r(u), d_r(v))`` list (arcs
        with an endpoint unreachable from the root are left out of
        ``G_{r,λ}``); each λ then builds its weighted instance from it.
        """
        host_distances, host_parents = self._root_data(root)
        node_list = list(self.graph.nodes())
        arcs: list[tuple[Node, Node, int]] = []
        for u, v in self.graph.edges():
            du = host_distances.get(u)
            dv = host_distances.get(v)
            if du is None or dv is None:
                continue
            arcs.append((u, v, du if du >= dv else dv))
        terminals = set(query_set) | {root}
        candidates: list[frozenset[Node]] = []
        for lam in lams:
            reweighted = WeightedGraph()
            for node in node_list:
                reweighted.add_node(node)
            for u, v, gap in arcs:
                reweighted.add_edge(u, v, lam + gap / lam)
            # G_{r,λ} weights are λ + max(·)/λ ≥ λ > 0 by construction.
            tree = mehlhorn_steiner_tree(
                reweighted, terminals, assume_positive_weights=True
            )
            if adjust:
                adjusted = adjust_distances(
                    self.graph,
                    tree,
                    root,
                    bfs_distances_map=host_distances,
                    bfs_parents_map=host_parents,
                )
                nodes = set(adjusted.nodes())
            else:
                nodes = set(tree.nodes())
            nodes |= query_set
            candidates.append(frozenset(nodes))
        return candidates

    def score_exact(self, nodes) -> float:
        return wiener_index(self.graph.subgraph(nodes))

    def score_proxy(self, nodes, root: Node) -> float:
        return len(nodes) * rooted_distance_sum(self.graph.subgraph(nodes), root)

    def score_sampled(self, nodes, num_sources: int, seed: int) -> float:
        """Remark-1 sampled Wiener estimate of ``G[nodes]``.

        Sources are sampled as positions into the canonically sorted node
        list — the rule of
        :meth:`repro.core.fastpath.CSRWienerSteinerEngine.score_sampled` —
        so both engines score the same candidate identically.
        """
        ordered = sorted(nodes, key=self._order.__getitem__)
        n = len(ordered)
        if n < 2:
            return 0.0
        sub = self.graph.subgraph(nodes)
        if num_sources >= n:
            return wiener_index(sub)
        positions = random.Random(seed).sample(range(n), num_sources)
        total = 0
        for position in positions:
            distances = bfs_distances(sub, ordered[position])
            if len(distances) != n:
                return math.inf
            total += sum(distances.values())
        return (total / num_sources) * n / 2


def reference_wiener_steiner(
    graph: Graph,
    query: Iterable[Node],
    options: SolveOptions | None = None,
) -> ConnectorResult:
    """Algorithm 1 on the dict engine: the oracle of the identity tests.

    Runs the canonical λ-major, root-minor loop with per-query candidate
    dedup and strict-improvement selection, under the ``ws-q`` tunables
    of ``options`` (``prune`` is ignored: nothing is ever skipped).
    Returns a :class:`ConnectorResult` whose ``metadata`` carries
    ``root``, ``lambda`` and ``candidates``, like the serving path's.
    """
    started = time.perf_counter()
    options = options if options is not None else SolveOptions()
    query_set = frozenset(query)
    _validate_query(graph, query_set)
    if len(query_set) == 1:
        only = next(iter(query_set))
        best_nodes, best_root, best_lambda, num_candidates = (
            query_set, only, None, 1
        )
    else:
        engine = _DictEngine(graph)
        roots = _root_list(options, query_set)
        for root in roots:
            unreachable = engine.unreachable_queries(root, query_set)
            if unreachable:
                raise DisconnectedGraphError(
                    f"query vertices {sorted(map(repr, unreachable))} "
                    f"unreachable from root {root!r}"
                )
        grid = (
            list(options.lambda_values)
            if options.lambda_values is not None
            else _lambda_grid(graph.num_nodes, options.beta)
        )
        per_root = {
            root: engine.candidates_for_root(root, grid, query_set, options.adjust)
            for root in roots
        }
        best_key = math.inf
        best_nodes = best_root = best_lambda = None
        scored: dict[frozenset, float] = {}
        for lam_i, lam in enumerate(grid):
            for root in roots:
                candidate = per_root[root][lam_i]
                if candidate in scored:
                    continue
                key = _score(
                    engine,
                    candidate,
                    root,
                    options.selection,
                    exact_threshold=options.exact_threshold,
                    sample_sources=options.sample_sources,
                    sample_seed=options.sample_seed,
                )
                scored[candidate] = key
                if key < best_key:
                    best_key = key
                    best_nodes, best_root, best_lambda = candidate, root, lam
        num_candidates = len(scored)
    return ConnectorResult(
        host=graph,
        nodes=best_nodes,
        query=query_set,
        method="ws-q",
        metadata={
            "root": best_root,
            "lambda": best_lambda,
            "candidates": num_candidates,
            "runtime_seconds": time.perf_counter() - started,
        },
    )
