"""Property tests for the ConnectorService serving layer.

The contract under test is the identity contract of
:mod:`repro.core.service`: ``ConnectorService.solve`` / ``solve_many`` —
cold or warm caches, before and after LRU eviction — must return
connectors *identical* to the one-shot ``wiener_steiner`` on random
corpora, while the :class:`SolveOptions` / :class:`Method` layer must
dispatch every method uniformly.
"""

import random

import pytest

from helpers import (
    assert_connector_identical,
    assert_same_winner,
    random_connected_graph,
    random_query_batch,
)
from repro.baselines import METHODS, steiner_connector
from repro.core.options import FunctionMethod, Method, SolveOptions
from repro.core.reference import reference_wiener_steiner
from repro.core.service import ConnectorService, service_from_payload
from repro.core.wiener_steiner import wiener_steiner
from repro.datasets import karate_club
from repro.errors import GraphError, InvalidQueryError
from repro.graphs.landmarks import LandmarkIndex
from repro.graphs.traversal import bfs_distances


#: What a service's answers are checked against: ``"csr"`` is the one-shot
#: ``wiener_steiner`` (full contract, candidates trace included), ``"dict"``
#: the dict reference oracle (same winner; it never prunes).
REFERENCES = ["csr", "dict"]


def assert_matches_reference(result, graph, query, reference: str) -> None:
    if reference == "csr":
        assert_connector_identical(result, wiener_steiner(graph, query))
    else:
        assert_same_winner(result, reference_wiener_steiner(graph, query))


class TestSolveOptions:
    def test_defaults(self):
        options = SolveOptions()
        assert options.method == "ws-q"
        assert options.selection == "auto"
        assert options.prune is True

    def test_normalizes_iterables_and_stays_hashable(self):
        options = SolveOptions(roots=[1, 2], lambda_values=[0.5, 2.0])
        assert options.roots == (1, 2)
        assert options.lambda_values == (0.5, 2.0)
        assert hash(options) == hash(SolveOptions(roots=(1, 2),
                                                  lambda_values=(0.5, 2.0)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": -1.0},
            {"selection": "nope"},
            {"method": None},
            {"method": ""},
            {"lambda_values": ()},
            {"exact_threshold": -1},
            {"sample_sources": 0},
        ],
    )
    def test_validates_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_values": [0.0]},
            {"lambda_values": [-1.0]},
            {"lambda_values": [1.0, float("nan")]},
            {"lambda_values": [float("inf")]},
            {"beta": float("nan")},
            {"beta": float("inf")},
        ],
    )
    def test_rejects_non_positive_or_non_finite_lambda_and_beta(self, kwargs):
        """Out-of-range λ and β fail at construction, before any sweep
        (β = nan would otherwise silently shrink the λ grid)."""
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    def test_replace_revalidates(self):
        options = SolveOptions()
        assert options.replace(beta=0.5).beta == 0.5
        with pytest.raises(ValueError):
            options.replace(selection="bogus")


class TestServiceIdentity:
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_matches_one_shot_on_random_corpus(self, reference):
        rng = random.Random(101)
        for seed in range(4):
            g = random_connected_graph(rng.randint(28, 64), 0.09, seed)
            service = ConnectorService(g)
            for query in random_query_batch(g, rng, 3):
                assert_matches_reference(service.solve(query), g, query, reference)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_warm_cache_is_identical_and_hits(self, reference):
        g = random_connected_graph(40, 0.09, 7)
        rng = random.Random(7)
        service = ConnectorService(g)
        query = rng.sample(sorted(g.nodes()), 4)
        cold = service.solve(query)
        warm = service.solve(query)
        assert warm is cold  # served straight from the result cache
        assert service.stats().result_hits == 1
        assert_matches_reference(warm, g, query, reference)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_identical_after_lru_eviction(self, reference):
        """Tiny LRU bounds force constant eviction; answers must not change."""
        g = random_connected_graph(36, 0.1, 13)
        rng = random.Random(13)
        service = ConnectorService(
            g,
            max_cached_roots=1,
            max_cached_candidates=2,
            max_cached_scores=2,
            max_cached_results=1,
        )
        queries = random_query_batch(g, rng, 3)
        for _ in range(2):  # interleave so every cache layer churns
            for query in queries:
                assert_matches_reference(service.solve(query), g, query, reference)

    def test_overlapping_queries_reuse_roots(self):
        g = random_connected_graph(48, 0.09, 5)
        hot = sorted(g.nodes())[:6]
        service = ConnectorService(g)
        service.solve(hot[:4])
        before = service.stats()
        service.solve(hot[1:5])  # three shared roots
        after = service.stats()
        assert after.cached_roots <= 6
        assert after.candidate_misses > before.candidate_misses

    def test_solve_many_preserves_order_and_dedups(self):
        g = random_connected_graph(40, 0.09, 3)
        rng = random.Random(3)
        q1, q2 = random_query_batch(g, rng, 2)
        results = ConnectorService(g).solve_many([q1, q2, q1, q1])
        assert [sorted(r.query) for r in results] == [
            sorted(set(q1)), sorted(set(q2)), sorted(set(q1)), sorted(set(q1))
        ]
        assert results[2] is results[0]
        assert_connector_identical(results[0], wiener_steiner(g, q1))
        assert_connector_identical(results[1], wiener_steiner(g, q2))

    def test_solve_many_dedups_past_a_small_result_cache(self):
        """Each distinct query set is swept once per batch, even when the
        result LRU is too small to hold the repeat until it comes round."""
        service = ConnectorService(karate_club(), max_cached_results=1)
        results = service.solve_many([[12, 25, 30], [1, 33], [12, 25, 30]])
        assert results[2] is results[0]
        stats = service.stats()
        assert stats.result_misses == 2
        assert stats.result_hits == 1
        assert stats.queries_served == 3
        assert_connector_identical(
            results[0], wiener_steiner(karate_club(), [12, 25, 30])
        )

    def test_single_vertex_query(self, triangle):
        result = ConnectorService(triangle).solve([1])
        assert result.nodes == frozenset([1])

    def test_empty_query_raises(self, triangle):
        with pytest.raises(InvalidQueryError):
            ConnectorService(triangle).solve([])

    def test_unknown_vertex_raises(self, triangle):
        with pytest.raises(InvalidQueryError):
            ConnectorService(triangle).solve([0, 99])

    def test_empty_roots_raises(self, triangle):
        with pytest.raises(InvalidQueryError):
            ConnectorService(triangle).solve([0, 1], SolveOptions(roots=()))

    def test_unknown_root_raises_before_the_sweep(self):
        """A pinned root outside the graph is a typed validation error on
        both the graph-holding and the bare-CSR (shard replica) service."""
        graph = karate_club()
        service = ConnectorService(graph)
        replica = service_from_payload(service.worker_payload())
        options = SolveOptions(roots=(999, 12))
        with pytest.raises(InvalidQueryError, match="999"):
            service.solve([12, 25, 30], options)
        with pytest.raises(InvalidQueryError, match="999"):
            replica.sweep([12, 25, 30], options)
        assert service.stats().cached_roots == 0
        assert replica.stats().cached_roots == 0
        pinned = service.solve([12, 25, 30], options.replace(roots=(12,)))
        assert pinned.metadata["root"] == 12

    def test_needs_graph_or_csr(self):
        with pytest.raises(GraphError):
            ConnectorService()

    def test_backends_identical_through_service(self):
        """An unpruned service matches the oracle's whole sweep trace."""
        g = random_connected_graph(52, 0.08, 17)
        rng = random.Random(17)
        options = SolveOptions(prune=False)
        service = ConnectorService(g, options)
        for query in random_query_batch(g, rng, 3):
            assert_connector_identical(
                service.solve(query), reference_wiener_steiner(g, query, options)
            )


class TestShardWorkerAPI:
    """The picklable shard-side surface: worker_payload -> service_from_payload
    -> sweep, the exact loop a persistent shard process runs."""

    def test_payload_round_trip_sweep_identical(self):
        g = random_connected_graph(40, 0.1, 83)
        rng = random.Random(83)
        query = rng.sample(sorted(g.nodes()), 4)
        parent = ConnectorService(g)
        replica = service_from_payload(parent.worker_payload())
        outcome = replica.sweep(query)
        reference = wiener_steiner(g, query)
        assert outcome.nodes == reference.nodes
        assert outcome.root == reference.metadata["root"]
        assert outcome.lam == reference.metadata["lambda"]
        assert outcome.candidates == reference.metadata["candidates"]

    def test_sweep_warm_reask_hits_result_cache(self):
        g = random_connected_graph(36, 0.1, 89)
        service = ConnectorService(g)
        query = sorted(g.nodes())[:4]
        cold = service.sweep(query)
        warm = service.sweep(query)
        assert warm is cold
        stats = service.stats()
        assert stats.result_hits == 1
        assert stats.queries_served == 2

    def test_sweep_and_solve_keys_do_not_collide(self):
        g = random_connected_graph(36, 0.1, 97)
        service = ConnectorService(g)
        query = sorted(g.nodes())[:3]
        outcome = service.sweep(query)
        result = service.solve(query)
        assert result.nodes == outcome.nodes
        # both cached, under distinct keys
        assert service.stats().result_cache_size == 2

    def test_payload_forwards_cache_limits(self):
        g = random_connected_graph(36, 0.1, 101)
        payload = ConnectorService(g).worker_payload(
            cache_limits={"max_cached_results": 1, "max_cached_roots": 1}
        )
        replica = service_from_payload(payload)
        for query in ([0, 1], [2, 3], [4, 5]):
            nodes = [sorted(g.nodes())[i] for i in query]
            replica.sweep(nodes)
        stats = replica.stats()
        assert stats.result_cache_size == 1
        assert stats.cached_roots <= 1


class TestSampledSelection:
    def test_backend_parity_when_sampling(self):
        """``exact_threshold=0`` forces the sampled estimator for every
        candidate; the engine and the dict oracle must still agree bit
        for bit."""
        options = SolveOptions(
            selection="sampled", exact_threshold=0, sample_sources=3
        )
        rng = random.Random(31)
        for seed in range(3):
            g = random_connected_graph(rng.randint(28, 56), 0.1, seed)
            query = rng.sample(sorted(g.nodes()), 4)
            for opts in (SolveOptions(selection="sampled"), options):
                assert_same_winner(
                    ConnectorService(g, opts).solve(query),
                    reference_wiener_steiner(g, query, opts),
                )
            unpruned = options.replace(prune=False)
            assert_connector_identical(
                ConnectorService(g, unpruned).solve(query),
                reference_wiener_steiner(g, query, unpruned),
            )

    def test_sampled_covering_sources_equals_exact(self):
        g = random_connected_graph(30, 0.12, 37)
        rng = random.Random(37)
        query = rng.sample(sorted(g.nodes()), 4)
        sampled = ConnectorService(
            g,
            SolveOptions(selection="sampled", exact_threshold=0,
                         sample_sources=10_000),
        ).solve(query)
        exact = wiener_steiner(g, query, selection="wiener")
        assert sampled.nodes == exact.nodes

    def test_wiener_index_sampled_csr_matches_dict(self, monkeypatch):
        import repro.graphs.wiener as wiener_mod

        g = random_connected_graph(150, 0.05, 41)
        csr_value = wiener_mod.wiener_index_sampled(
            g, num_sources=12, rng=random.Random(5)
        )
        monkeypatch.setattr(wiener_mod, "CSR_DISPATCH_THRESHOLD", 10**9)
        dict_value = wiener_mod.wiener_index_sampled(
            g, num_sources=12, rng=random.Random(5)
        )
        assert csr_value == dict_value


class TestMethodProtocol:
    def test_registry_satisfies_protocol(self):
        for tag, method in METHODS.items():
            assert isinstance(method, Method)
            assert method.name == tag

    def test_solve_equals_legacy_call(self):
        g = random_connected_graph(30, 0.12, 43)
        rng = random.Random(43)
        query = rng.sample(sorted(g.nodes()), 3)
        for tag, method in METHODS.items():
            assert method.solve(g, query).nodes == method(g, query).nodes

    def test_function_method_adapter(self):
        method = FunctionMethod("st", steiner_connector)
        g = random_connected_graph(24, 0.15, 47)
        query = sorted(g.nodes())[:3]
        assert method.solve(g, query, SolveOptions()).nodes == \
            steiner_connector(g, query).nodes

    def test_service_dispatches_baselines_uniformly(self):
        g = random_connected_graph(30, 0.12, 53)
        rng = random.Random(53)
        query = rng.sample(sorted(g.nodes()), 3)
        service = ConnectorService(g)
        for tag in METHODS:
            result = service.solve(query, SolveOptions(method=tag))
            assert result.nodes == METHODS[tag].solve(g, query).nodes
        # and the per-(query, options) result cache applies to baselines too
        again = service.solve(query, SolveOptions(method="st"))
        assert again is service.solve(query, SolveOptions(method="st"))

    def test_unknown_method_raises(self, triangle):
        with pytest.raises(ValueError):
            ConnectorService(triangle).solve(
                [0, 1], SolveOptions(method="frobnicate")
            )


class TestBatchedServingBeatsOneShot:
    def test_solve_many_faster_and_bit_identical(self):
        """The acceptance contract at test scale: a skewed request batch is
        served faster than independent ``wiener_steiner`` calls and returns
        bit-identical connectors.  (The full 10k/50k reference measurement
        lives in ``benchmarks/bench_serving.py`` / ``BENCH_serving.json``.)

        The margin asserted here is deliberately loose (just *faster*): the
        service does a deterministic fraction of the one-shot work — 4
        distinct sweeps instead of 12 — so only pathological scheduler
        noise could flip the comparison.
        """
        import time

        g = random_connected_graph(400, 0.008, 71)
        rng = random.Random(71)
        pool = [rng.sample(sorted(g.nodes()), 5) for _ in range(4)]
        requests = pool + [pool[rng.randrange(4)] for _ in range(8)]
        rng.shuffle(requests)

        started = time.perf_counter()
        one_shot = [wiener_steiner(g, query) for query in requests]
        one_shot_seconds = time.perf_counter() - started

        service = ConnectorService(g)
        started = time.perf_counter()
        served = service.solve_many(requests)
        serving_seconds = time.perf_counter() - started

        for a, b in zip(one_shot, served):
            assert a.nodes == b.nodes
        assert service.stats().result_hits == 8
        assert serving_seconds < one_shot_seconds


class TestServiceLandmarks:
    def test_landmark_index_built_once_and_sound(self):
        g = random_connected_graph(40, 0.1, 59)
        service = ConnectorService(g, landmarks=4)
        index = service.landmark_index
        assert index is service.landmark_index  # built lazily, then reused
        nodes = sorted(g.nodes())
        truth = bfs_distances(g, nodes[0])
        for v in nodes[1:6]:
            assert service.estimate_distance(nodes[0], v) >= truth[v]

    def test_no_landmarks_by_default(self, triangle):
        service = ConnectorService(triangle)
        assert service.landmark_index is None
        with pytest.raises(GraphError):
            service.estimate_distance(0, 1)

    def test_csr_tables_match_dict_tables(self):
        g = random_connected_graph(150, 0.05, 61)
        fast = LandmarkIndex(g, num_landmarks=3)

        class _NoCSR(LandmarkIndex):
            CSR_THRESHOLD = 10**9

        slow = _NoCSR(g, num_landmarks=3)
        assert fast.landmarks == slow.landmarks
        assert fast._tables == slow._tables


class TestServiceLifecycleAndStats:
    """The shared lifecycle surface and the hit_rate() observability helper."""

    def test_context_manager_is_a_noop_close(self):
        g = random_connected_graph(20, 0.2, 71)
        with ConnectorService(g) as service:
            result = service.solve([0, 1])
        # close() holds no processes: the service stays fully usable, so
        # `with` is safe sugar for scoped construction at every call site.
        assert_connector_identical(service.solve([0, 1]), result)

    def test_hit_rate_zero_lookup_guard(self):
        g = random_connected_graph(16, 0.25, 73)
        stats = ConnectorService(g).stats()
        for layer in ("result", "candidate", "score"):
            assert stats.hit_rate(layer) == 0.0

    def test_hit_rate_counts_warm_reasks(self):
        g = random_connected_graph(24, 0.18, 77)
        service = ConnectorService(g)
        queries = random_query_batch(g, random.Random(7), 4)
        service.solve_many(queries + queries)
        stats = service.stats()
        assert stats.hit_rate() == stats.result_hits / (
            stats.result_hits + stats.result_misses
        )
        assert stats.hit_rate() >= 0.5  # every re-ask is a warm hit
        assert 0.0 <= stats.hit_rate("candidate") <= 1.0
        assert 0.0 <= stats.hit_rate("score") <= 1.0

    def test_hit_rate_rejects_unknown_layer(self):
        g = random_connected_graph(12, 0.3, 79)
        with pytest.raises(ValueError, match="unknown cache layer"):
            ConnectorService(g).stats().hit_rate("bfs")
