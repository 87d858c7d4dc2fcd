"""Tests of the benchmark itself: planted wrong answers are caught, inputs
are seed-determined, deltas are checked, tracing accounts self time, and
ring teardown leaves no shard process behind.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from perfbench import checks, inputs, run, spans, workloads
from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService

TINY_COLD = workloads.ColdConfig(nodes=300, setup_repeats=2, checks=3, queries_per_mutate=3)
TINY_HOT = workloads.RingConfig(nodes=300, edges=900, pool=4, callers=4, setup_repeats=1)
TINY_MUTATE = dataclasses.replace(TINY_HOT, reads_per_write=20, max_deltas=200)


def corrupt(result):
    """The same connector with a wrong candidate count: a subtle mismatch."""
    metadata = dict(result.metadata, candidates=result.metadata["candidates"] + 1)
    return dataclasses.replace(result, metadata=metadata)


class WrongService(ConnectorService):
    def solve(self, query, options=None):
        return corrupt(super().solve(query, options))


class WrongRing(ShardedConnectorService):
    """Serves correct answers at epoch 0 and corrupted ones afterwards, so
    the mutating workload's per-epoch check is what must catch it."""

    corrupt_from_epoch = 0

    def solve_many(self, queries, options=None, **kwargs):
        results = super().solve_many(queries, options, **kwargs)
        if self.epoch < self.corrupt_from_epoch:
            return results
        return [corrupt(result) for result in results]


class WrongAfterWrite(WrongRing):
    corrupt_from_epoch = 1


def test_summary_detects_metadata_corruption():
    csr = inputs.ba_csr(200, 2, 1)
    query = (3, 50, 120)
    result = ConnectorService(None, csr=csr).solve(query)
    from repro.serving.protocol import result_to_payload

    assert checks.summary(result_to_payload(result)) == checks.expected(query, csr=csr)
    assert checks.summary(result_to_payload(corrupt(result))) != checks.expected(
        query, csr=csr
    )


def test_cold_ba_clean_run_is_correct():
    out = workloads.cold_ba(5, 0.5, False, TINY_COLD)
    assert out.mismatches == 0 and out.failed == 0
    # A delta and its undo after every third query.
    assert len(out.mutate_s) == 2 * ((len(out.latencies_s) - 1) // 3)
    assert len(out.mutate_s) >= 2
    assert len(out.setup_s) == 2


def test_cold_ba_catches_planted_wrong_answer():
    out = workloads.cold_ba(5, 0.5, False, TINY_COLD, service_factory=WrongService)
    assert out.mismatches == min(TINY_COLD.checks, len(out.latencies_s))
    assert out.failed == out.mismatches


def test_hot_ring_catches_planted_wrong_answer():
    clean = workloads.ring(5, 0.5, False, TINY_HOT)
    assert clean.mismatches == 0 and clean.failed == 0
    planted = workloads.ring(5, 0.5, False, TINY_HOT, service_cls=WrongRing)
    # Every reply is checked against its pool entry's cold answer.
    assert planted.mismatches == len(planted.latencies_s)
    assert workloads.live_children() == []


def test_mutate_ring_catches_wrong_answer_after_a_write():
    clean = workloads.ring(5, 1.0, False, TINY_MUTATE)
    assert clean.mismatches == 0 and len(clean.mutate_s) >= 1
    planted = workloads.ring(5, 1.0, False, TINY_MUTATE, service_cls=WrongAfterWrite)
    assert planted.mismatches and all(line.startswith("epoch ") for line in planted.wrong)
    assert workloads.live_children() == []


def test_run_exits_nonzero_and_reports_incorrect(monkeypatch, capsys):
    def planted(seed, seconds, traced):
        return workloads.cold_ba(seed, seconds, traced, TINY_COLD, service_factory=WrongService)

    monkeypatch.setitem(workloads.WORKLOADS, "cold-ba", planted)
    code = run.main(["--workload", "cold-ba", "--seed", "2", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_traced_run_prints_every_layer_metric(monkeypatch, capsys):
    monkeypatch.setitem(
        workloads.WORKLOADS, "cold-ba",
        lambda seed, seconds, traced: workloads.cold_ba(seed, seconds, traced, TINY_COLD),
    )
    assert run.main(["--workload", "cold-ba", "--seed", "2", "--seconds", "0.4",
                     "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    with open(run.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["fastpath.mehlhorn_calls"]["value"] > 0


def test_inputs_are_seed_determined():
    def digests(seed):
        graph = inputs.er_graph(200, 600, seed)
        return (
            inputs.graph_digest(graph),
            inputs.stream_digest(inputs.zipf_stream(8, 500, 1.1, seed)),
            inputs.stream_digest(inputs.rotating_stream(8, 3, 20, 10, 1.1, seed)),
            inputs.delta_digest(inputs.delta_stream(graph, 5, 3, seed)),
            inputs.delta_digest(d for pair in inputs.undo_pairs(graph, 5, 3, seed) for d in pair),
            inputs.csr_digest(inputs.ba_csr(200, 2, seed)),
        )

    assert digests(3) == digests(3)
    assert all(a != b for a, b in zip(digests(3), digests(4)))


def test_delta_stream_applies_in_order_and_stale_deltas_are_refused():
    graph = inputs.er_graph(200, 600, 1)
    live = graph.copy()
    deltas = inputs.delta_stream(graph, 6, 3, 1)
    for delta in deltas:
        inputs.check_applicable(live, delta)
        workloads._apply(live, delta)
    assert len(list(live.edges())) == len(list(graph.edges())) + 3
    with pytest.raises(ValueError):
        inputs.check_applicable(live, deltas[-1])  # its inserts exist now


def test_tracer_self_time_excludes_nested_spans_and_uninstalls():
    class Layer:
        def inner(self):
            total = 0
            for i in range(20_000):
                total += i
            return total

        def outer(self):
            return self.inner() + self.inner()

    original = Layer.__dict__["outer"]
    tracer = spans.Tracer()
    tracer.patch(Layer, "outer", lambda fn: tracer.timed("outer", fn))
    tracer.patch(Layer, "inner", lambda fn: tracer.timed("inner", fn))
    Layer().outer()
    tracer.uninstall()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert 0 < tracer.self_s["outer"] < tracer.self_s["inner"]
    assert Layer.__dict__["outer"] is original


def test_gateway_wait_counts_only_the_uncovered_part():
    tracer = spans.Tracer()
    q = frozenset({1, 2})
    tracer.intervals["sharded.solve_many"] = [(1.0, 3.0, [q]), (5.0, 6.0, [q])]
    tracer.intervals["gateway.asolve"] = [
        (0.5, 3.5, q),   # waited 0.5 before and 0.5 after its window
        (2.0, 3.2, q),   # coalesced onto the running window
        (4.0, 6.5, q),   # the later window
    ]
    assert spans.gateway_wait_seconds(tracer) == pytest.approx([1.0, 0.2, 1.5])
