"""Certified λ×root sweep pruning: bit-identity, bounds, counters, rebuilds.

The contract under test (see :mod:`repro.core.pruning`): pruning only
ever skips ``(root, λ)`` pairs whose *provable* score lower bound exceeds
the running incumbent, so a pruned sweep returns the same winning
``(nodes, root, λ, key)`` as the unpruned sweep — and as the dict
reference oracle — across shard counts, warm/cold caches, and mutation
epochs.  The ``candidates`` trace
may legitimately differ (pruned roots never materialize candidate sets),
so the pruned-vs-unpruned comparisons here pin the winner, while the
all-defaults comparisons across serving paths use the full
:func:`helpers.assert_connector_identical` contract.
"""

import random

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
)
from repro.core.options import SolveOptions
from repro.core.reference import reference_wiener_steiner
from repro.core.pruning import (
    candidate_bound,
    exact_score_floor,
    pairwise_gap_sum,
    proxy_score_floor,
    root_bound,
)
from repro.core.service import ConnectorService, _lambda_grid, _root_list
from repro.core.sharded import ShardedConnectorService
from repro.core.versioned import GraphDelta
from test_versioned import delta_for

#: What the pruned sweep is checked against: ``"csr"`` an unpruned
#: service, ``"dict"`` the dict reference oracle (which never prunes).
REFERENCES = ["csr", "dict"]


def _unpruned_solver(graph, options: SolveOptions, reference: str):
    """A query -> result callable for the unpruned side of a comparison."""
    if reference == "dict":
        return lambda query: reference_wiener_steiner(graph, query, options)
    return ConnectorService(graph, options).solve


def _winner(result):
    """The certified-identical part of a solve: winner, not the trace."""
    return (
        result.nodes,
        result.metadata["root"],
        result.metadata["lambda"],
    )


# ----------------------------------------------------------------------
# The tentpole contract: pruned == unpruned, bit for bit
# ----------------------------------------------------------------------
class TestPrunedUnprunedIdentity:
    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("selection", ["a", "wiener", "auto", "sampled"])
    @pytest.mark.parametrize("seed", [3, 17, 64])
    def test_same_winner_across_selections(self, reference, selection, seed):
        rng = random.Random(seed)
        g = random_connected_graph(55, 0.08, seed)
        queries = random_query_batch(g, rng, 10, lo=2, hi=6)
        # A small exact_threshold exercises the auto/sampled regime split
        # on candidates this size instead of routing everything to exact.
        base = SolveOptions(selection=selection, exact_threshold=8)
        pruned = ConnectorService(g, base)
        unpruned = _unpruned_solver(g, base.replace(prune=False), reference)
        for query in queries:
            assert _winner(pruned.solve(query)) == _winner(unpruned(query))
        stats = pruned.stats()
        assert stats.pairs_pruned + stats.pairs_scored > 0

    def test_unpruned_service_never_prunes(self):
        g = random_connected_graph(55, 0.08, 3)
        unpruned = ConnectorService(g, SolveOptions(prune=False))
        for query in random_query_batch(g, random.Random(3), 5, lo=2, hi=6):
            unpruned.solve(query)
        stats = unpruned.stats()
        assert stats.pairs_pruned == 0 and stats.pairs_scored > 0

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_same_winner_with_extended_roots(self, reference, seed=29):
        """Non-default roots (beyond Lemma 5's query set) widen the sweep
        — exactly where root-level pruning fires hardest and where the
        any-scoring-root requirement of the proxy bound is exercised."""
        rng = random.Random(seed)
        g = random_connected_graph(60, 0.07, seed)
        nodes = sorted(g.nodes())
        for _ in range(8):
            query = rng.sample(nodes, rng.randint(2, 4))
            roots = tuple(
                dict.fromkeys(query + rng.sample(nodes, 6))
            )
            for selection in ("a", "auto"):
                opts = SolveOptions(
                    roots=roots, selection=selection, exact_threshold=8
                )
                pruned = ConnectorService(g, opts)
                unpruned = _unpruned_solver(g, opts.replace(prune=False), reference)
                assert _winner(pruned.solve(query)) == _winner(unpruned(query))

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_warm_and_cold_prune_identically(self, reference):
        """Counters and answers are a pure function of (graph, query,
        options): re-solving on a warm service adds result-cache hits,
        never different pruning decisions."""
        g = random_connected_graph(40, 0.1, 71)
        rng = random.Random(71)
        queries = random_query_batch(g, rng, 6)
        warm = ConnectorService(g)
        for query in queries:
            warm.solve(query)
        after_cold = warm.stats()
        for query in queries:
            warm.solve(query)  # result-cache hits: no new sweeps
        after_warm = warm.stats()
        assert after_warm.pairs_pruned == after_cold.pairs_pruned
        assert after_warm.pairs_scored == after_cold.pairs_scored

        fresh = ConnectorService(g)
        for query in queries:
            assert_connector_identical(fresh.solve(query), warm.solve(query))
        assert fresh.stats().pairs_pruned == after_cold.pairs_pruned
        assert fresh.stats().pairs_scored == after_cold.pairs_scored
        unpruned = _unpruned_solver(g, SolveOptions(prune=False), reference)
        for query in queries:
            assert _winner(warm.solve(query)) == _winner(unpruned(query))


class TestIdentityAcrossServingPaths:
    """Default options (pruning on) through every serving path: the
    existing cross-path bit-identity contract must survive pruning."""

    def test_backends_agree_under_default_pruning(self):
        """The default (pruned) service picks the dict oracle's winner."""
        g = random_connected_graph(50, 0.09, 83)
        rng = random.Random(83)
        service = ConnectorService(g)
        for query in random_query_batch(g, rng, 8):
            assert _winner(service.solve(query)) == _winner(
                reference_wiener_steiner(g, query)
            )

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_sharded_matches_local_across_epochs(self, n_shards):
        rng = random.Random(97)
        graph = random_connected_graph(40, 0.12, 97)
        reference = graph.copy()
        local = ConnectorService(graph.copy())
        queries = random_query_batch(graph, rng, 5)
        with ShardedConnectorService(graph, n_shards=n_shards) as ring:
            for _ in range(2):  # epoch 0, then a mutated epoch
                for query in queries:
                    assert_connector_identical(
                        ring.solve(query), local.solve(query)
                    )
                stats = ring.stats()
                assert stats.pairs_pruned + stats.pairs_scored > 0
                delta = delta_for(reference, rng)
                delta.apply_to_graph(reference)
                ring.apply_delta(delta)
                local.apply_delta(delta)
        assert_no_orphan_processes()


# ----------------------------------------------------------------------
# Counters partition the sweep
# ----------------------------------------------------------------------
class TestCounters:
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_pruned_plus_scored_covers_every_pair(self, reference):
        g = random_connected_graph(45, 0.1, 13)
        rng = random.Random(13)
        service = ConnectorService(g)
        unpruned = _unpruned_solver(g, SolveOptions(prune=False), reference)
        expected = 0
        for query in random_query_batch(g, rng, 7, lo=2, hi=5):
            query_set = frozenset(query)
            assert _winner(service.solve(query)) == _winner(unpruned(query))
            grid = _lambda_grid(g.num_nodes, service.options.beta)
            roots = _root_list(service.options, query_set)
            expected += len(grid) * len(roots)
        stats = service.stats()
        assert stats.pairs_pruned + stats.pairs_scored == expected
        assert 0.0 <= stats.prune_rate <= 1.0

    def test_prune_rate_zero_before_any_sweep(self):
        service = ConnectorService(random_connected_graph(10, 0.3, 1))
        assert service.stats().prune_rate == 0.0


# ----------------------------------------------------------------------
# The bounds really are lower bounds
# ----------------------------------------------------------------------
class TestBoundValidity:
    def test_pairwise_gap_sum_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(50):
            values = [rng.randrange(0, 12) for _ in range(rng.randint(2, 9))]
            brute = sum(
                abs(a - b)
                for i, a in enumerate(values)
                for b in values[i + 1:]
            )
            assert pairwise_gap_sum(values) == brute

    @pytest.mark.parametrize("selection", ["a", "wiener", "auto", "sampled"])
    @pytest.mark.parametrize("seed", [7, 21])
    def test_bounds_never_exceed_true_keys(self, selection, seed):
        """Property sweep: every key the *unpruned* sweep records for a
        root's candidates is >= that root's certified bound, and every
        individual candidate key is >= its candidate bound."""
        from repro.core.service import _sweep_root_bounds

        g = random_connected_graph(40, 0.1, seed)
        rng = random.Random(seed)
        opts = SolveOptions(selection=selection, exact_threshold=8, prune=False)
        service = ConnectorService(g, opts)
        engine = service._engine()
        for query in random_query_batch(g, rng, 5, lo=2, hi=5):
            query_set = frozenset(query)
            roots = _root_list(opts, query_set)
            grid = _lambda_grid(g.num_nodes, opts.beta)
            bounds = _sweep_root_bounds(engine, roots, query_set, opts)
            for root in roots:
                per_lam = service._candidates_for_root(
                    engine, root, grid, query_set, opts.adjust
                )
                for candidate in per_lam:
                    key = service._score_candidate(
                        engine, candidate, root, opts
                    )
                    cand_floor = service._score_bound(
                        engine, candidate, root, opts
                    )
                    assert bounds[root] <= key + 1e-9
                    assert cand_floor <= key + 1e-9

    def test_primitive_floors_are_sane(self):
        # A path of length D contributes C(D+1, 3) beyond the all-pairs-1
        # base; a 1-gap regime degenerates to the base.
        assert exact_score_floor(4, 3, 0, 2) == 6 + 4  # C(4,2) + C(4,3)
        assert exact_score_floor(3, 1, 1, 2) == 3
        # The proxy floor takes the weakest scorer.
        assert proxy_score_floor(5, [(10, 3), (4, 2)]) == 5 * (4 + 3)
        # Dispatch: "wiener" ignores scorers, "a" ignores the exact floor.
        assert root_bound("wiener", 8, 4, 3, 0, 2, [(1, 2)]) == 10
        assert root_bound("a", 8, 4, 3, 0, 2, [(1, 2)]) == 4 * (1 + 2)
        # "sampled" above the threshold floors at C(s, 2).
        assert root_bound("sampled", 3, 10, 1, 0, 2, [(0, 2)]) == 45
        # candidate_bound, exact regime: gap sum vs edge deficit.
        assert candidate_bound("wiener", 8, 3, [0, 1, 2], 2) == max(4, 2 * 3 - 2)


# ----------------------------------------------------------------------
# Satellite: eager landmark rebuild at delta-apply time
# ----------------------------------------------------------------------
class TestEagerLandmarkRebuild:
    def test_apply_delta_rebuilds_eagerly(self):
        g = random_connected_graph(30, 0.15, 31)
        rng = random.Random(31)
        service = ConnectorService(g, landmarks=4)
        assert service.stats().landmark_rebuilds == 0  # lazy until first use
        assert service.landmark_index is not None
        assert service.stats().landmark_rebuilds == 1
        delta = delta_for(g, rng)
        service.apply_delta(delta)
        # Rebuilt *inside* apply_delta — not deferred to the next access.
        assert service.stats().landmark_rebuilds == 2
        assert service._landmark_index is not None
        before = service.stats().landmark_rebuilds
        service.solve(sorted(g.nodes())[:3])
        service.estimate_distance(*sorted(g.nodes())[:2])
        assert service.stats().landmark_rebuilds == before

    def test_no_landmarks_means_no_rebuilds(self):
        g = random_connected_graph(20, 0.2, 37)
        service = ConnectorService(g)
        service.apply_delta(delta_for(g, random.Random(37)))
        assert service.stats().landmark_rebuilds == 0
        assert service.landmark_index is None

    def test_warm_ring_replicas_rebuild_at_mutate_time(self):
        """The regression the satellite pins: shard replicas built with
        ``landmarks=k`` pay their landmark rebuild inside the mutate RPC,
        so the first post-mutate sweep is not the one paying k BFS passes.
        Asserted via the cross-process rebuild counter, not timing."""
        graph = random_connected_graph(30, 0.15, 41)
        rng = random.Random(41)
        queries = random_query_batch(graph, rng, 3)
        with ShardedConnectorService(graph, n_shards=2, landmarks=3) as ring:
            for query in queries:  # warm the ring
                ring.solve(query)
            assert ring.stats().landmark_rebuilds == 0  # nothing asked yet
            delta = delta_for(graph, rng)
            ring.apply_delta(delta)
            # Every replica (2 shards + the router-local fallback) rebuilt
            # eagerly during the epoch flip.
            assert ring.stats().landmark_rebuilds == 3
            before = ring.stats().landmark_rebuilds
            for query in queries:
                ring.solve(query)  # post-mutate sweeps pay no rebuild
            assert ring.stats().landmark_rebuilds == before
        assert_no_orphan_processes()
