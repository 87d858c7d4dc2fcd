"""End-to-end integration tests across module boundaries.

Each test exercises a realistic pipeline the way a downstream user would:
dataset → workload → algorithm → characterization → report.
"""

import random

import pytest

from repro import minimum_wiener_connector
from repro.baselines import METHODS
from repro.core import wiener_steiner
from repro.core.exact import brute_force
from repro.datasets import karate_club, load_community_dataset, load_dataset, puc_like
from repro.experiments.reporting import render_table
from repro.experiments.stats import characterize, host_betweenness
from repro.graphs import wiener_index
from repro.graphs.components import nodes_connect
from repro.solvers import flow_lp_lower_bound, solve_exact
from repro.workloads import (
    average_pairwise_distance,
    different_communities_query,
    query_with_distance,
)


class TestFullPipelines:
    def test_dataset_to_report(self):
        """dataset → distance-controlled workload → all methods → table."""
        graph = load_dataset("football")
        rng = random.Random(0)
        query = query_with_distance(graph, 5, 2.5, rng=rng)
        centrality = host_betweenness(graph)
        rows = []
        for tag, method in METHODS.items():
            stats = characterize(method(graph, query), centrality)
            rows.append((tag, stats.size, f"{stats.density:.3f}"))
        text = render_table(("method", "size", "density"), rows)
        assert "ws-q" in text

    def test_certified_pipeline(self):
        """ws-q → warm-started exact solver → LP cross-check."""
        graph = karate_club()
        query = [12, 25, 26, 30]
        approx = minimum_wiener_connector(graph, query)
        outcome = solve_exact(graph, query, initial=approx)
        assert outcome.optimal
        assert outcome.upper_bound <= approx.wiener_index
        lp = flow_lp_lower_bound(graph, query)
        assert lp.value <= outcome.upper_bound + 1e-6

    def test_community_workload_pipeline(self):
        """ground-truth graph → dc query → method comparison."""
        data = load_community_dataset("dblp")
        rng = random.Random(1)
        query = different_communities_query(data, 4, rng)
        assert len(data.communities_of(query)) == 4
        ws = wiener_steiner(data.graph, query)
        assert nodes_connect(data.graph, ws.nodes)
        # The connector spans at least the query's communities.
        assert len(data.communities_of(ws.nodes)) >= 2

    def test_steinlib_pipeline(self, tmp_path):
        """generate .stp → write → read → solve both objectives."""
        from repro.baselines import steiner_connector
        from repro.graphs.io import read_stp, write_stp

        instance = puc_like(1)
        path = tmp_path / "inst.stp"
        write_stp(instance, path)
        loaded = read_stp(path)
        graph, terminals = loaded.unweighted()
        st = steiner_connector(graph, terminals)
        ws = wiener_steiner(graph, terminals)
        assert st.wiener_index >= ws.wiener_index * 0.9

    def test_exact_chain_consistency(self):
        """brute force == branch and bound == ws-q upper bound ordering."""
        rng = random.Random(3)
        from repro.graphs.generators import connectify, erdos_renyi

        graph = connectify(erdos_renyi(13, 0.3, rng=rng), rng=rng)
        query = rng.sample(sorted(graph.nodes()), 4)
        exact = brute_force(graph, query, max_candidates=13)
        bnb = solve_exact(graph, query)
        approx = wiener_steiner(graph, query)
        assert bnb.upper_bound == exact.wiener_index
        assert exact.wiener_index <= approx.wiener_index

    def test_workload_distance_control_on_dataset(self):
        graph = load_dataset("celegans")
        rng = random.Random(4)
        query = query_with_distance(graph, 6, 3.0, rng=rng)
        achieved = average_pairwise_distance(graph, query)
        assert achieved == pytest.approx(3.0, abs=1.0)

    def test_public_api_surface(self):
        """Everything advertised in repro.__all__ is importable."""
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_karate_wiener_sanity(self):
        graph = karate_club()
        # Known value range for the karate club's Wiener index.
        value = wiener_index(graph)
        assert 1100 < value < 1600
