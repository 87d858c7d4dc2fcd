"""Property tests for the CSR array engine.

The contract under test is strong: the CSR kernels must return results
*identical* to the dict reference implementations — identical distances,
identical canonical BFS/Voronoi trees, identical Steiner trees, and
``wiener_steiner`` connectors identical to the dict reference oracle
(:func:`repro.core.reference.reference_wiener_steiner`) — on random
corpora, not merely results of equal quality.
"""

import math
import random

import numpy as np
import pytest

from helpers import (
    assert_same_winner,
    random_connected_graph,
    random_weighted_graph,
)
from repro.core.fastpath import (
    CSRWienerSteinerEngine,
    _voronoi_phase,
    mehlhorn_steiner_csr,
)
from repro.core.options import SolveOptions
from repro.core.reference import reference_wiener_steiner
from repro.core.steiner import (
    canonical_forest_from_distances,
    dijkstra_distances_canonical,
    mehlhorn_steiner_tree,
    tree_total_weight,
    voronoi_dijkstra_canonical,
)
from repro.core.wiener_steiner import wiener_steiner
from repro.errors import GraphError, InvalidQueryError
from repro.graphs.csr import CSRGraph, order_map
from repro.graphs.generators import (
    barabasi_albert,
    connectify,
    erdos_renyi,
    grid_graph,
    hypercube_graph,
)
from repro.graphs.graph import Graph, WeightedGraph
from repro.graphs.traversal import (
    bfs_distances,
    bfs_tree_canonical,
    dijkstra,
    multi_source_bfs,
)
from repro.graphs.wiener import rooted_distance_sum, wiener_index


class TestCSRStructure:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        g = random_connected_graph(50, 0.1, seed + 9000)
        csr = CSRGraph.from_graph(g)
        assert csr.num_nodes == g.num_nodes
        assert csr.num_edges == g.num_edges
        for node in g.nodes():
            idx = csr.index_of[node]
            row = csr.indices[csr.indptr[idx] : csr.indptr[idx + 1]]
            assert {csr.node_of[int(j)] for j in row} == g.neighbors(node)
            assert list(row) == sorted(row)  # canonical adjacency order

    def test_order_matches_order_map(self):
        g = random_connected_graph(30, 0.15, 9100)
        csr = CSRGraph.from_graph(g)
        assert csr.index_of == order_map(g)

    def test_induced_matches_subgraph(self):
        g = random_connected_graph(60, 0.1, 9200)
        nodes = sorted(g.nodes())[:25]
        csr = CSRGraph.from_graph(g)
        sub = csr.induced(csr.indices_for(nodes))
        expected = g.subgraph(nodes)
        assert sub.num_nodes == expected.num_nodes
        assert sub.num_edges == expected.num_edges
        assert sub.wiener_index() == wiener_index(expected)


class TestTraversalEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_bfs_distances_identical(self, seed):
        g = random_connected_graph(70, 0.07, seed + 9300)
        csr = CSRGraph.from_graph(g)
        source = sorted(g.nodes())[seed % g.num_nodes]
        expected = bfs_distances(g, source)
        dist = csr.bfs_distances(csr.index_of[source])
        assert {csr.node_of[i]: int(d) for i, d in enumerate(dist)} == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_bfs_tree_parents_are_canonical(self, seed):
        g = random_connected_graph(60, 0.08, seed + 9400)
        csr = CSRGraph.from_graph(g)
        source = sorted(g.nodes())[0]
        expected_dist, expected_parents = bfs_tree_canonical(g, source)
        dist, parent = csr.bfs_tree(csr.index_of[source])
        for node, expected_parent in expected_parents.items():
            assert csr.node_of[int(parent[csr.index_of[node]])] == expected_parent
        for node, d in expected_dist.items():
            assert int(dist[csr.index_of[node]]) == d

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_source_bfs_distances(self, seed):
        g = random_connected_graph(60, 0.08, seed + 9500)
        csr = CSRGraph.from_graph(g)
        sources = sorted(g.nodes())[: 3 + seed]
        expected, _ = multi_source_bfs(g, sources)
        dist, closest = csr.multi_source_bfs([csr.index_of[s] for s in sources])
        for node, d in expected.items():
            idx = csr.index_of[node]
            assert int(dist[idx]) == d
            # the claimed source must actually realize the distance
            source = csr.node_of[int(closest[idx])]
            assert bfs_distances(g, source)[node] == d

    @pytest.mark.parametrize("seed", range(5))
    def test_wiener_and_rooted_sum(self, seed):
        g = random_connected_graph(50, 0.1, seed + 9600)
        csr = CSRGraph.from_graph(g)
        # dict reference, computed below the CSR dispatch threshold
        n = g.num_nodes
        total = sum(sum(bfs_distances(g, v).values()) for v in g.nodes())
        assert csr.wiener_index() == total / 2
        assert wiener_index(g) == total / 2
        root = sorted(g.nodes())[0]
        assert rooted_distance_sum(g, root, csr=csr) == rooted_distance_sum(g, root)

    def test_wiener_disconnected_infinite(self):
        g = Graph([(0, 1)], nodes=[2])
        csr = CSRGraph.from_graph(g)
        assert csr.wiener_index() == math.inf


class TestDijkstraInlineParents:
    """Satellite: dijkstra tracks parents in the heap loop, no second pass."""

    @pytest.mark.parametrize("seed", range(5))
    def test_parents_form_shortest_path_tree(self, seed):
        g = random_weighted_graph(25, 90, seed + 9700)
        source = next(iter(g.nodes()))
        distances, parents = dijkstra(g, source)
        assert source not in parents
        for node, parent in parents.items():
            assert distances[parent] + g.weight(parent, node) == pytest.approx(
                distances[node]
            )
        # every settled node except the source has a parent
        assert set(parents) == set(distances) - {source}


class TestSteinerEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_voronoi_dijkstra_identical(self, seed):
        wg = random_weighted_graph(30, 110, seed + 9800)
        order = order_map(wg)
        node_of = list(wg.nodes())
        rng = random.Random(seed)
        sources = rng.sample(node_of, 4)
        expected = voronoi_dijkstra_canonical(wg, sources, order, node_of)
        csr, weights = CSRGraph.from_weighted_graph(wg)
        # The engine's phase 1 (scipy distances + the canonical forest
        # rebuilt from them) matches the dict distances bit for bit and
        # the dict forest rebuilt from those distances.
        terminal_indices = sorted(order[s] for s in sources)
        dist, parent, closest = _voronoi_phase(csr, weights, terminal_indices)
        assert dist.tolist() == list(expected[0])
        dict_parent, dict_closest = canonical_forest_from_distances(
            wg, list(expected[0]), order, node_of, terminal_indices
        )
        assert list(parent) == list(dict_parent)
        assert closest.tolist() == list(dict_closest)
        # distance-only variant agrees too
        assert (
            dijkstra_distances_canonical(wg, sources, order, node_of)
            == expected[0]
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_canonical_forest_consistent(self, seed):
        wg = random_weighted_graph(30, 110, seed + 9900)
        order = order_map(wg)
        node_of = list(wg.nodes())
        rng = random.Random(seed)
        sources = rng.sample(node_of, 3)
        terminal_indices = sorted(order[s] for s in sources)
        dist = dijkstra_distances_canonical(wg, sources, order, node_of)
        parent, closest = canonical_forest_from_distances(
            wg, dist, order, node_of, terminal_indices
        )
        for v_idx, p_idx in enumerate(parent):
            if p_idx < 0:
                continue
            w = wg.weight(node_of[p_idx], node_of[v_idx])
            assert dist[p_idx] + w == dist[v_idx]
            assert closest[v_idx] == closest[p_idx]
        for t_idx in terminal_indices:
            assert closest[t_idx] == t_idx

    @pytest.mark.parametrize("seed", range(10))
    def test_mehlhorn_csr_matches_dict(self, seed):
        wg = random_weighted_graph(28, 100, seed + 10000)
        rng = random.Random(seed)
        terminals = rng.sample(sorted(wg.nodes()), 5)
        try:
            tree = mehlhorn_steiner_tree(wg, terminals)
        except Exception:
            pytest.skip("terminals disconnected in this sample")
        csr, weights = CSRGraph.from_weighted_graph(wg)
        nodes, edges = mehlhorn_steiner_csr(
            csr, weights, [csr.index_of[t] for t in terminals]
        )
        assert {csr.node_of[i] for i in nodes} == set(tree.nodes())
        total = sum(
            weights[csr.arc_weight_position(a, b)] for a, b in edges
        )
        assert total == tree_total_weight(tree)


    @staticmethod
    def _lemma4_instance(graph, root, lam):
        """The engine's ``G_{r,λ}`` weight row and its dict twin.

        The row is the engine's Lemma-4 expression, ``+inf`` on arcs the
        root cannot reach; the dict twin leaves those arcs out, like the
        reference oracle does.
        """
        engine = CSRWienerSteinerEngine(graph)
        csr = engine.csr
        arc_max = engine._root_data(root)[2]
        weights = np.where(arc_max < 0, np.inf, lam + arc_max / lam)
        wg = WeightedGraph()
        for node in csr.node_of:
            wg.add_node(node)
        positions, tails, heads = csr.half_arcs
        for k, u, v in zip(positions.tolist(), tails.tolist(), heads.tolist()):
            if math.isfinite(weights[k]):
                wg.add_edge(csr.node_of[u], csr.node_of[v], float(weights[k]))
        return csr, weights, wg

    @pytest.mark.parametrize(
        "host",
        [
            # A BA host plus a cycle the roots cannot reach (+inf arcs).
            Graph(
                list(barabasi_albert(150, 2, rng=random.Random(5)).edges())
                + [(1000 + i, 1000 + (i + 1) % 12) for i in range(12)]
            ),
            grid_graph(9, 11),
            hypercube_graph(6),
        ],
        ids=["ba+unreachable", "grid", "hypercube"],
    )
    def test_forest_identical_on_tie_heavy_lemma4_weights(self, host):
        # λ + max(d_r)/λ takes few distinct values, so equal distances and
        # several tight in-neighbours per node are the rule here: the
        # forest's (dist[u], u) tie-break decides almost every parent.
        rng = random.Random(11)
        reachable = sorted(v for v in host.nodes() if v < 1000)
        ties = 0
        for root in rng.sample(reachable, 3):
            for lam in (0.5, 1.0, 3.0):
                csr, weights, wg = self._lemma4_instance(host, root, lam)
                order = order_map(wg)
                node_of = list(wg.nodes())
                query = rng.sample(reachable, 5)
                terminal_indices = sorted({order[v] for v in query} | {order[root]})
                dist, parent, closest = _voronoi_phase(csr, weights, terminal_indices)
                dict_dist = voronoi_dijkstra_canonical(
                    wg, [node_of[t] for t in terminal_indices], order, node_of
                )[0]
                assert dist.tolist() == dict_dist
                dict_parent, dict_closest = canonical_forest_from_distances(
                    wg, dict_dist, order, node_of, terminal_indices
                )
                assert parent.tolist() == dict_parent
                assert closest.tolist() == dict_closest
                head_dist = dist[csr.indices]
                tight = (dist[csr.arc_src] + weights == head_dist) & np.isfinite(head_dist)
                ties += int((np.bincount(csr.indices[tight]) > 1).sum())
                nodes, edges = mehlhorn_steiner_csr(csr, weights, terminal_indices)
                tree = mehlhorn_steiner_tree(wg, [node_of[t] for t in terminal_indices])
                assert {node_of[i] for i in nodes} == set(tree.nodes())
                assert {frozenset((node_of[a], node_of[b])) for a, b in edges} == {
                    frozenset((u, v)) for u, v, _ in tree.edges()
                }
        assert ties > 0

    def test_huge_terminal_set_uses_compacted_pair_keys(self):
        # 2,100 terminals: 2100**2 > 1 << 22, so the crossing scan takes
        # the np.unique-compacted scatter-min instead of the dense table.
        rng = random.Random(21)
        n = 3000
        wg = WeightedGraph()
        for i in range(n):
            wg.add_edge(i, (i + 1) % n, float(rng.randint(1, 3)))
        for _ in range(600):
            u, v = rng.sample(range(n), 2)
            wg.add_edge(u, v, float(rng.randint(1, 3)))
        terminals = rng.sample(range(n), 2100)
        assert len(terminals) ** 2 > 1 << 22
        tree = mehlhorn_steiner_tree(wg, terminals)
        csr, weights = CSRGraph.from_weighted_graph(wg)
        nodes, edges = mehlhorn_steiner_csr(
            csr, weights, [csr.index_of[t] for t in terminals]
        )
        assert {csr.node_of[i] for i in nodes} == set(tree.nodes())
        assert {frozenset((csr.node_of[a], csr.node_of[b])) for a, b in edges} == {
            frozenset((u, v)) for u, v, _ in tree.edges()
        }


class TestBackendEquality:
    """The headline acceptance property: the engine's connectors are the
    dict reference oracle's, with the same root and λ."""

    @staticmethod
    def _assert_matches_oracle(graph, query, **kwargs):
        served = wiener_steiner(graph, query, **kwargs)
        oracle = reference_wiener_steiner(graph, query, SolveOptions(**kwargs))
        assert_same_winner(served, oracle)
        return served, oracle

    @pytest.mark.parametrize("seed", range(12))
    def test_connectors_identical(self, seed):
        rng = random.Random(seed)
        n = rng.randint(12, 90)
        g = connectify(erdos_renyi(n, rng.uniform(0.05, 0.3), rng=rng), rng=rng)
        k = min(rng.randint(2, 6), g.num_nodes)
        query = rng.sample(sorted(g.nodes()), k)
        served, oracle = self._assert_matches_oracle(g, query)
        assert served.wiener_index == oracle.wiener_index

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"adjust": False},
            {"selection": "a"},
            {"selection": "wiener"},
            {"beta": 0.5},
            {"lambda_values": [1.0, 2.5]},
        ],
    )
    def test_connectors_identical_across_knobs(self, kwargs):
        for seed in range(4):
            g = random_connected_graph(45, 0.1, seed + 10100)
            rng = random.Random(seed)
            query = rng.sample(sorted(g.nodes()), 4)
            self._assert_matches_oracle(g, query, **kwargs)

    def test_custom_roots_identical(self):
        g = random_connected_graph(40, 0.12, 10200)
        query = sorted(g.nodes())[:3]
        roots = sorted(g.nodes())[:8]
        self._assert_matches_oracle(g, query, roots=roots)

    def test_disconnected_host_identical(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (10, 11), (11, 12)])
        served, oracle = self._assert_matches_oracle(g, [0, 4])
        assert served.nodes == oracle.nodes == frozenset(range(5))

    def test_mehlhorn_rejects_non_positive_weights(self):
        wg = random_weighted_graph(20, 60, 10400)
        csr, weights = CSRGraph.from_weighted_graph(wg)
        weights[0] = 0.0
        with pytest.raises(GraphError):
            mehlhorn_steiner_csr(csr, weights, [0, csr.num_nodes - 1])

    @pytest.mark.parametrize(
        "terminals, message",
        [
            ([], "terminal set must be non-empty"),
            ([0, 9], "terminal 9 not in graph"),
            ([-1, 2], "terminal -1 not in graph"),
        ],
    )
    def test_mehlhorn_rejects_invalid_terminals(self, terminals, message):
        wg = WeightedGraph([(i, i + 1, 1.0) for i in range(4)])
        csr, weights = CSRGraph.from_weighted_graph(wg)
        with pytest.raises(InvalidQueryError, match=message):
            mehlhorn_steiner_csr(csr, weights, terminals)
        with pytest.raises(InvalidQueryError, match=message):
            mehlhorn_steiner_tree(wg, terminals)
