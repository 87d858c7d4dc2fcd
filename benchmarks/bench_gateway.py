"""Gateway serving benchmark: ``AsyncGateway`` vs naive per-request solving.

Models the workload the async front-end exists for: requests arrive *one
at a time, concurrently* — a Poisson process (exponential inter-arrival
gaps) over a Zipf-skewed pool of distinct query sets on the 10k-node /
50k-edge reference graph.  Two deployments drain the same arrival
schedule end to end:

* **naive per-request solving** — what an asyncio application does
  without a serving layer: each arrival dispatches its own one-shot
  ``wiener_steiner`` call to a thread executor.  Every request rebuilds
  the index and re-runs every sweep, repeats included — there is no
  shared state to amortize into;
* **the gateway** — one persistent :class:`ConnectorService` behind an
  :class:`AsyncGateway`: arrivals are micro-batched into ``solve_many``
  windows, identical in-flight requests coalesce onto one solve, and the
  service's index/BFS/candidate/result caches persist across the stream.

Throughput is measured as completed requests per second of makespan
(first arrival to last completion) and latency per request from arrival
to resolution (p50/p95).  The arrival schedule is deterministic (seeded)
and *identical* for both deployments; the offered rate saturates the
naive server so the comparison measures serving capacity, not idle time.

The gate checks two things end-to-end:

* every connector the gateway returns is **bit-identical** (vertex set
  and sweep trace) to the naive one-shot solve of the same request;
* the gateway is faster — ``>= 2x`` throughput on the reference instance
  (the acceptance target, recorded in ``BENCH_gateway.json``), strictly
  faster on the reduced ``--smoke`` instance CI runs.

Usage::

    python benchmarks/bench_gateway.py            # reference instance, writes BENCH_gateway.json
    python benchmarks/bench_gateway.py --smoke    # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import platform
import random
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

if __package__ in (None, ""):
    _HERE = pathlib.Path(__file__).resolve().parent
    _SRC = _HERE.parent / "src"
    for path in (_SRC, _HERE):
        if path.is_dir() and str(path) not in sys.path:
            sys.path.insert(0, str(path))

from bench_backend import build_instance
from bench_serving import make_workload
from bench_sharded import identical

from repro.core.gateway import AsyncGateway, nearest_rank
from repro.core.service import ConnectorService
from repro.core.wiener_steiner import wiener_steiner


def make_arrivals(num_requests: int, mean_gap_ms: float, seed: int) -> list[float]:
    """Poisson-process arrival offsets (seconds from stream start)."""
    rng = random.Random(seed)
    clock = 0.0
    offsets = []
    for _ in range(num_requests):
        clock += rng.expovariate(1.0 / (mean_gap_ms / 1000.0))
        offsets.append(clock)
    return offsets


async def drain_stream(arrivals, requests, submit):
    """Replay the arrival schedule; returns (results, latencies, makespan).

    ``submit(query)`` is an awaitable per-request solve.  Each request
    task sleeps until its arrival offset, then measures arrival→result
    latency — queueing delay included, which is the point.
    """
    started = time.perf_counter()

    async def one(offset, query):
        await asyncio.sleep(max(0.0, offset - (time.perf_counter() - started)))
        arrived = time.perf_counter()
        result = await submit(query)
        return result, time.perf_counter() - arrived

    pairs = await asyncio.gather(
        *(one(offset, query) for offset, query in zip(arrivals, requests))
    )
    makespan = time.perf_counter() - started
    return [p[0] for p in pairs], [p[1] for p in pairs], makespan


def run_naive(graph, requests, arrivals, workers: int):
    """One-shot ``wiener_steiner`` per arrival on a thread executor."""
    async def scenario():
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return await drain_stream(
                arrivals,
                requests,
                lambda query: loop.run_in_executor(
                    pool, wiener_steiner, graph, query
                ),
            )

    return asyncio.run(scenario())


def run_gateway(graph, requests, arrivals, max_batch: int, max_wait_ms: float):
    """The same stream through ``AsyncGateway`` over one warm service."""
    async def scenario():
        with ConnectorService(graph) as service:
            async with AsyncGateway(
                service, max_batch=max_batch, max_wait_ms=max_wait_ms
            ) as gateway:
                results, latencies, makespan = await drain_stream(
                    arrivals, requests, gateway.asolve
                )
                return (
                    results, latencies, makespan,
                    gateway.stats(), service.stats(),
                )

    return asyncio.run(scenario())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=10)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--unique", type=int, default=8,
                        help="distinct query sets in the request pool")
    parser.add_argument("--mean-gap-ms", type=float, default=20.0,
                        help="mean Poisson inter-arrival gap; well below "
                             "the one-shot solve time, so the naive server "
                             "is saturated and throughput measures capacity")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--naive-workers", type=int, default=4,
                        help="thread pool size of the naive deployment "
                             "(generous: the sweeps are GIL-bound anyway)")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless the gateway beats naive "
        "per-request solving with identical connectors (CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_gateway.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Shrink to CI scale unless the caller pinned sizes explicitly.
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 600
        if args.edges == parser.get_default("edges"):
            args.edges = 1_800
        if args.query_size == parser.get_default("query_size"):
            args.query_size = 6
        if args.requests == parser.get_default("requests"):
            args.requests = 16
        if args.unique == parser.get_default("unique"):
            args.unique = 4
        if args.mean_gap_ms == parser.get_default("mean_gap_ms"):
            args.mean_gap_ms = 5.0

    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    arrivals = make_arrivals(args.requests, args.mean_gap_ms, args.seed)
    distinct = len({frozenset(q) for q in requests})
    print(
        f"instance: {graph}, {len(requests)} Poisson arrivals "
        f"(mean gap {args.mean_gap_ms:.0f} ms) over {distinct} distinct "
        f"queries of size {args.query_size}, seed={args.seed}",
        flush=True,
    )

    naive_results, naive_latencies, naive_span = run_naive(
        graph, requests, arrivals, args.naive_workers
    )
    naive_throughput = len(requests) / naive_span
    print(
        f"naive per-request : {naive_span:8.3f}s makespan "
        f"({naive_throughput:6.2f} req/s, "
        f"p50 {nearest_rank(naive_latencies, 0.50) * 1e3:7.1f} ms, "
        f"p95 {nearest_rank(naive_latencies, 0.95) * 1e3:7.1f} ms)",
        flush=True,
    )

    gateway_results, gateway_latencies, gateway_span, stats, service_stats = (
        run_gateway(graph, requests, arrivals, args.max_batch, args.max_wait_ms)
    )
    gateway_throughput = len(requests) / gateway_span
    print(
        f"gateway           : {gateway_span:8.3f}s makespan "
        f"({gateway_throughput:6.2f} req/s, "
        f"p50 {nearest_rank(gateway_latencies, 0.50) * 1e3:7.1f} ms, "
        f"p95 {nearest_rank(gateway_latencies, 0.95) * 1e3:7.1f} ms)",
        flush=True,
    )

    all_identical = all(
        identical(a, b) for a, b in zip(naive_results, gateway_results)
    )
    speedup = gateway_throughput / naive_throughput
    print(f"identical connectors: {all_identical}")
    print(f"throughput speedup (gateway / naive): {speedup:.2f}x")
    print(
        f"gateway: {stats.windows_dispatched} windows "
        f"(mean size {stats.mean_window_size:.1f}), "
        f"{stats.coalesced} coalesced, {stats.shed} shed",
        flush=True,
    )

    if not all_identical:
        print("FAIL: gateway returned different connectors", file=sys.stderr)
        return 1
    if args.smoke:
        if gateway_throughput <= naive_throughput:
            print(
                f"FAIL: gateway throughput ({gateway_throughput:.2f} req/s) "
                f"does not beat naive per-request solving "
                f"({naive_throughput:.2f} req/s)",
                file=sys.stderr,
            )
            return 1
        print("smoke OK")
        return 0
    if speedup < 2.0:
        print(
            f"FAIL: reference-instance throughput speedup {speedup:.2f}x is "
            "below the 2x acceptance target",
            file=sys.stderr,
        )
        return 1

    record = {
        "benchmark": "AsyncGateway micro-batched serving vs naive per-request async solving",
        "instance": {
            "model": "erdos_renyi + connectify",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "query_size": args.query_size,
            "seed": args.seed,
        },
        "workload": {
            "requests": len(requests),
            "distinct_queries": distinct,
            "arrivals": "poisson",
            "mean_gap_ms": args.mean_gap_ms,
            "distribution": "zipf(1.1) over the query pool, each distinct query at least once",
        },
        "gateway": {
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "windows_dispatched": stats.windows_dispatched,
            "mean_window_size": round(stats.mean_window_size, 2),
            "coalesced": stats.coalesced,
            "shed": stats.shed,
        },
        "service_cache_hit_rates": {
            layer: round(service_stats.hit_rate(layer), 3)
            for layer in ("result", "candidate", "score")
        },
        "naive_workers": args.naive_workers,
        "naive_makespan_seconds": round(naive_span, 4),
        "gateway_makespan_seconds": round(gateway_span, 4),
        "naive_throughput_rps": round(naive_throughput, 3),
        "gateway_throughput_rps": round(gateway_throughput, 3),
        "naive_latency_ms": {
            "p50": round(nearest_rank(naive_latencies, 0.50) * 1e3, 2),
            "p95": round(nearest_rank(naive_latencies, 0.95) * 1e3, 2),
            "mean": round(statistics.fmean(naive_latencies) * 1e3, 2),
        },
        "gateway_latency_ms": {
            "p50": round(nearest_rank(gateway_latencies, 0.50) * 1e3, 2),
            "p95": round(nearest_rank(gateway_latencies, 0.95) * 1e3, 2),
            "mean": round(statistics.fmean(gateway_latencies) * 1e3, 2),
        },
        "throughput_speedup": round(speedup, 2),
        "identical_connectors": all_identical,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
