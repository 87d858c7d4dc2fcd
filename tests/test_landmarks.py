"""Tests for the landmark distance oracle."""

import math
import random

import pytest

from helpers import random_connected_graph, random_weighted_graph
from repro.errors import GraphError
from repro.graphs.graph import WeightedGraph
from repro.graphs.landmarks import LandmarkIndex
from repro.graphs.generators import barabasi_albert, connectify, erdos_renyi, path_graph, star_graph
from repro.graphs.traversal import bfs_distances, dijkstra
from repro.graphs.wiener import wiener_index


class TestConstruction:
    def test_degree_strategy_picks_hubs(self):
        index = LandmarkIndex(star_graph(8), num_landmarks=1)
        assert index.landmarks == [0]

    def test_random_strategy(self):
        g = path_graph(20)
        index = LandmarkIndex(g, num_landmarks=5, strategy="random",
                              rng=random.Random(1))
        assert len(index) == 5
        assert len(set(index.landmarks)) == 5

    def test_landmark_count_capped(self):
        index = LandmarkIndex(path_graph(3), num_landmarks=10)
        assert len(index) == 3

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            LandmarkIndex(path_graph(3), num_landmarks=0)
        with pytest.raises(GraphError):
            LandmarkIndex(path_graph(3), strategy="psychic")


class TestEstimates:
    def test_upper_and_lower_bracket_truth(self):
        g = random_connected_graph(80, 0.06, 21)
        index = LandmarkIndex(g, num_landmarks=8)
        nodes = sorted(g.nodes())
        rng = random.Random(3)
        for _ in range(30):
            u, v = rng.sample(nodes, 2)
            true = bfs_distances(g, u)[v]
            assert index.lower_bound(u, v) <= true <= index.estimate(u, v)

    def test_exact_through_landmark(self):
        g = star_graph(6)
        index = LandmarkIndex(g, num_landmarks=1)  # the hub
        assert index.estimate(1, 2) == 2.0  # exact: hub on every path

    def test_same_node_zero(self):
        index = LandmarkIndex(path_graph(5), num_landmarks=2)
        assert index.estimate(2, 2) == 0.0
        assert index.lower_bound(2, 2) == 0.0

    def test_estimate_many(self):
        g = path_graph(6)
        index = LandmarkIndex(g, num_landmarks=2)
        values = index.estimate_many([(0, 5), (1, 2)])
        assert len(values) == 2
        assert values[0] >= 5

    def test_hub_landmarks_accurate_on_scale_free(self):
        rng = random.Random(5)
        g = connectify(barabasi_albert(300, 3, rng=rng), rng=rng)
        index = LandmarkIndex(g, num_landmarks=12)
        nodes = sorted(g.nodes())
        errors = []
        for _ in range(40):
            u, v = rng.sample(nodes, 2)
            true = bfs_distances(g, u)[v]
            errors.append(index.estimate(u, v) - true)
        # Hub landmarks should be exact for a solid share of pairs.
        assert sum(1 for e in errors if e == 0) >= len(errors) // 3


def _disconnected_graph(seed: int, extra_components: int = 3):
    """A random graph plus several components no landmark will sit in.

    Degree landmarks land in the dense main component, so every vertex of
    the small satellite components is unreachable from every landmark —
    the disconnected regime the upper-bound contract must survive.
    """
    rng = random.Random(seed)
    graph = connectify(erdos_renyi(40, 0.12, rng=rng), rng=rng)
    satellites = []
    base = 10_000
    for c in range(extra_components):
        u, v = base + 2 * c, base + 2 * c + 1
        graph.add_edge(u, v)
        satellites.extend([u, v])
    return graph, satellites


class TestDisconnectedContract:
    """The upper-bound contract on vertices unreachable from every
    landmark: estimates are ``math.inf``, never an exception — in the
    dict table build and in the CSR one alike."""

    def _index(self, graph, use_csr: bool, strategy: str = "degree"):
        if use_csr:
            from repro.graphs.csr import CSRGraph

            return LandmarkIndex(
                graph, num_landmarks=4, strategy=strategy,
                rng=random.Random(0), csr=CSRGraph.from_graph(graph),
            )
        return LandmarkIndex(
            graph, num_landmarks=4, strategy=strategy, rng=random.Random(0)
        )

    @pytest.mark.parametrize("use_csr", [False, True])
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_estimate_is_inf_never_raises(self, use_csr, seed):
        graph, satellites = _disconnected_graph(seed)
        index = self._index(graph, use_csr)
        main = sorted(n for n in graph.nodes() if n not in set(satellites))
        assert all(landmark in main for landmark in index.landmarks)
        rng = random.Random(seed)
        for _ in range(20):
            u = rng.choice(main)
            v = rng.choice(satellites)
            assert index.estimate(u, v) == math.inf
            assert index.estimate(v, u) == math.inf
            # inf is still a valid *upper* bound; the lower bound falls
            # back to the trivial 0.0 rather than raising either.
            assert index.lower_bound(u, v) == 0.0
        # pairs inside a landmark-less component are just as blind
        assert index.estimate(satellites[0], satellites[1]) == math.inf
        # ...and same-vertex stays exact even with no landmark coverage
        assert index.estimate(satellites[0], satellites[0]) == 0.0
        # reachable pairs keep returning finite floats
        u, v = main[0], main[-1]
        value = index.estimate(u, v)
        assert isinstance(value, float) and math.isfinite(value)

    @pytest.mark.parametrize("use_csr", [False, True])
    def test_wiener_estimate_propagates_inf(self, use_csr):
        graph, satellites = _disconnected_graph(404)
        index = self._index(graph, use_csr)
        main = sorted(n for n in graph.nodes() if n not in set(satellites))
        mixed = main[:3] + satellites[:2]
        # full enumeration and the pair-sampled path both report inf
        assert index.wiener_estimate(mixed) == math.inf
        assert index.wiener_estimate(
            mixed, sample_pairs=4, rng=random.Random(1)
        ) == math.inf
        assert index.wiener_estimate() == math.inf  # whole disconnected graph
        # an all-reachable subset stays finite
        assert math.isfinite(index.wiener_estimate(main[:5]))

    @pytest.mark.parametrize("use_csr", [False, True])
    def test_dict_and_csr_builds_agree(self, use_csr):
        """Both table builds hold the same distances, so the estimates —
        finite and infinite — are identical."""
        graph, satellites = _disconnected_graph(505)
        reference = self._index(graph, False)
        index = self._index(graph, use_csr)
        nodes = sorted(graph.nodes())
        rng = random.Random(5)
        for _ in range(30):
            u, v = rng.sample(nodes, 2)
            assert index.estimate(u, v) == reference.estimate(u, v)
            assert index.lower_bound(u, v) == reference.lower_bound(u, v)


class TestWeightedTables:
    """The weight-aware table regression: Dijkstra tables on weighted
    graphs, so the triangle bounds bracket the *weighted* metric.  An
    earlier revision silently ran hop-count BFS on WeightedGraph inputs,
    putting the "bounds" on the wrong side of the truth."""

    @pytest.mark.parametrize("seed", [11, 22, 33, 44])
    def test_bounds_bracket_weighted_truth(self, seed):
        g = random_weighted_graph(40, 120, seed=seed)
        index = LandmarkIndex(g, num_landmarks=6)
        nodes = sorted(g.nodes())
        rng = random.Random(seed)
        for _ in range(40):
            u, v = rng.sample(nodes, 2)
            true = dijkstra(g, u)[0].get(v)
            if true is None:
                continue
            assert index.lower_bound(u, v) <= true + 1e-9
            assert index.estimate(u, v) >= true - 1e-9

    def test_hop_counts_would_violate_the_bracket(self):
        """The concrete failure mode the fix removes: on a path with heavy
        edges, hop counts under-report the metric, so the old hop-count
        'upper bound' would fall below the true distance."""
        g = WeightedGraph()
        for i in range(5):
            g.add_edge(i, i + 1, weight=3.0)
        index = LandmarkIndex(g, num_landmarks=2)
        truth = dijkstra(g, 0)[0][5]
        assert truth == 15.0
        assert index.estimate(0, 5) >= truth  # hop count would say 5
        assert index.lower_bound(0, 5) <= truth

    def test_unit_weight_weighted_graph_matches_bfs(self):
        """All-ones weights are metrically unweighted: the tables must
        equal BFS hop counts (and stay integer-typed)."""
        plain = random_connected_graph(30, 0.15, 77)
        unit = WeightedGraph()
        for node in plain.nodes():
            unit.add_node(node)
        for u, v in plain.edges():
            unit.add_edge(u, v, weight=1)
        index = LandmarkIndex(unit, num_landmarks=4)
        reference = LandmarkIndex(plain, num_landmarks=4)
        assert index.landmarks == reference.landmarks
        for landmark in index.landmarks:
            hops = bfs_distances(plain, landmark)
            table = index._tables[landmark]
            assert table == hops
            assert all(isinstance(d, int) for d in table.values())


class TestVectorizedMany:
    """estimate_many / lower_bound_many are pinned element-wise to the
    scalar methods — including same-node pairs and pairs no landmark
    covers."""

    def _pairs(self, graph, seed, count=60):
        rng = random.Random(seed)
        nodes = sorted(graph.nodes(), key=repr)
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(count)]
        pairs.extend((node, node) for node in nodes[:5])
        return pairs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_on_connected(self, seed):
        g = random_connected_graph(70, 0.07, seed)
        index = LandmarkIndex(g, num_landmarks=7)
        pairs = self._pairs(g, seed)
        assert index.estimate_many(pairs) == [
            index.estimate(u, v) for u, v in pairs
        ]
        assert index.lower_bound_many(pairs) == [
            index.lower_bound(u, v) for u, v in pairs
        ]

    def test_matches_scalar_on_disconnected(self):
        graph, satellites = _disconnected_graph(606)
        index = LandmarkIndex(graph, num_landmarks=4)
        main = sorted(n for n in graph.nodes() if n not in set(satellites))
        pairs = (
            [(main[0], s) for s in satellites]
            + [(satellites[0], satellites[1])]
            + [(main[0], main[-1]), (main[3], main[3])]
        )
        assert index.estimate_many(pairs) == [
            index.estimate(u, v) for u, v in pairs
        ]
        assert index.lower_bound_many(pairs) == [
            index.lower_bound(u, v) for u, v in pairs
        ]

    def test_weighted_matches_scalar(self):
        g = random_weighted_graph(35, 100, seed=9)
        index = LandmarkIndex(g, num_landmarks=5)
        pairs = self._pairs(g, 9, count=40)
        assert index.estimate_many(pairs) == [
            index.estimate(u, v) for u, v in pairs
        ]
        assert index.lower_bound_many(pairs) == [
            index.lower_bound(u, v) for u, v in pairs
        ]

    def test_empty_pairs(self):
        index = LandmarkIndex(path_graph(6), num_landmarks=2)
        assert index.estimate_many([]) == []
        assert index.lower_bound_many([]) == []


class TestReprAndCSROnly:
    def test_repr_reports_post_clamp_count(self):
        index = LandmarkIndex(path_graph(3), num_landmarks=10)
        assert "landmarks=3" in repr(index)  # built 3, not the 10 asked for

    def test_csr_only_construction_matches_graph_build(self):
        from repro.graphs.csr import CSRGraph

        g = random_connected_graph(50, 0.1, 88)
        bare = LandmarkIndex(csr=CSRGraph.from_graph(g), num_landmarks=5)
        full = LandmarkIndex(g, num_landmarks=5)
        assert bare.landmarks == full.landmarks
        rng = random.Random(8)
        nodes = sorted(g.nodes())
        for _ in range(30):
            u, v = rng.sample(nodes, 2)
            assert bare.estimate(u, v) == full.estimate(u, v)
            assert bare.lower_bound(u, v) == full.lower_bound(u, v)
        assert f"|V|={g.num_nodes}" in repr(bare)

    def test_rejects_neither_graph_nor_csr(self):
        with pytest.raises(GraphError):
            LandmarkIndex(None, num_landmarks=2)


class TestWienerEstimate:
    def test_upper_bounds_true_wiener(self):
        g = random_connected_graph(50, 0.1, 22)
        index = LandmarkIndex(g, num_landmarks=10)
        assert index.wiener_estimate() >= wiener_index(g) - 1e-9

    def test_sampled_version_close_to_full(self):
        g = random_connected_graph(60, 0.1, 23)
        index = LandmarkIndex(g, num_landmarks=10)
        full = index.wiener_estimate()
        sampled = index.wiener_estimate(sample_pairs=500,
                                        rng=random.Random(0))
        assert sampled == pytest.approx(full, rel=0.3)

    def test_subset(self):
        g = path_graph(10)
        index = LandmarkIndex(g, num_landmarks=3)
        assert index.wiener_estimate(nodes=[0, 1]) >= 1.0

    def test_tiny(self):
        index = LandmarkIndex(path_graph(4), num_landmarks=2)
        assert index.wiener_estimate(nodes=[2]) == 0.0
