"""The three workloads, each driven through the system's public entry points.

* ``cold-ba`` -- one closed-loop caller, distinct never-repeated queries,
  in-process :class:`ConnectorService` over a stream-built BA host: every
  query is cold, so the engine kernels do the work.
* ``hot-ring`` -- 16 closed-loop callers over one TCP connection to
  :class:`GatewayServer` → :class:`AsyncGateway` → a 2-shard
  :class:`ShardedConnectorService`, Zipf reads of a warmed pool: every
  answer is a cache hit, so the time goes to protocol, gateway and router.
* ``mutate-ring`` -- the same tower with 8 readers and one writer that sends
  a :class:`GraphDelta` every fixed number of reads: writes go through the
  gateway drain, the ring's two-phase apply and scoped invalidation, and
  are followed by re-solves.

Each workload returns an :class:`Outcome`; ``run.py`` turns it into metrics.
With ``traced`` set, untraced and traced work alternate through the
measured phase (see ``spans.py``); the per-layer split comes from the
traced part, and the two parts' latency ratio is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import random
import statistics
import time
from dataclasses import dataclass, field

from repro.core.gateway import AsyncGateway
from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService
from repro.graphs.csr import CSRGraph
from repro.serving.protocol import result_to_payload
from repro.serving.server import AsyncConnectorClient, GatewayServer

from perfbench import checks, inputs, spans

#: Requests generated per stream; callers cycle through it.
STREAM_LENGTH = 100_000
#: Untraced/traced chunk pairs a traced ring run alternates through.
TRACE_CHUNKS = 5


@dataclass(frozen=True)
class ColdConfig:
    nodes: int = 4_000
    attachment: int = 2
    query_size: int = 5
    setup_repeats: int = 15
    checks: int = 5
    #: A delta and its undo are applied after every this many queries, so
    #: the mutate round trips sample the whole run while every query still
    #: sees the generated host.
    queries_per_mutate: int = 10
    delta_inserts: int = 4


@dataclass(frozen=True)
class RingConfig:
    nodes: int = 10_000
    edges: int = 50_000
    pool: int = 16
    query_size: int = 4
    zipf: float = 1.1
    callers: int = 16
    shards: int = 2
    max_batch: int = 32
    max_wait_ms: float = 2.0
    setup_repeats: int = 3
    #: Reads between two writes; ``None`` means a read-only workload whose
    #: mutate round trip is probed after the measured phase instead.
    reads_per_write: int | None = None
    #: Pool entries each write epoch reads (see ``inputs.rotating_stream``).
    hot_per_epoch: int = 4
    #: Deltas applied after a read-only workload's measured phase.
    mutate_probes: int = 15
    delta_inserts: int = 4
    max_deltas: int = 128


COLD_BA = ColdConfig()
HOT_RING = RingConfig()
MUTATE_RING = RingConfig(callers=8, reads_per_write=800)


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    #: Descriptions of the first few mismatches.
    wrong: list[str] = field(default_factory=list)
    mutate_s: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)

    def mismatch(self, description: str) -> None:
        """Record one answer that differs from its cold reference."""
        self.mismatches += 1
        self.failed += 1
        if len(self.wrong) < 10:
            self.wrong.append(description)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _counters(stats) -> dict:
    """Summed cache/sweep counters of a service or ring stats snapshot."""
    shards = getattr(stats, "shards", None)
    snapshots = (stats,) if shards is None else shards + (
        (stats.router_local,) if stats.router_local is not None else ()
    )
    names = (
        "result_hits", "result_misses", "score_hits", "score_misses",
        "pairs_pruned", "pairs_scored", "entries_retained",
        "entries_invalidated",
    )
    totals = {name: sum(getattr(s, name) for s in snapshots) for name in names}
    totals["per_shard"] = [s.queries_served for s in (shards or ())]
    return totals


def _delta(before: dict, after: dict) -> dict:
    out = {k: after[k] - before[k] for k in before if k != "per_shard"}
    out["per_shard"] = [a - b for a, b in zip(after["per_shard"], before["per_shard"])]
    return out


def _accumulate(total: dict | None, delta: dict) -> dict:
    if total is None:
        return delta
    return {
        k: [a + b for a, b in zip(v, delta[k])] if isinstance(v, list) else v + delta[k]
        for k, v in total.items()
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def live_children() -> list[int]:
    """Pids of this process's shard (multiprocessing) children still alive."""
    return [child.pid for child in multiprocessing.active_children()]


def assert_no_orphans() -> None:
    """Fail the run if a shard process outlived its ring's teardown."""
    orphans = live_children()
    if orphans:
        raise RuntimeError(f"shard processes outlived teardown: {orphans}")


def layer_metrics(
    tracer: spans.Tracer,
    *,
    requests: int,
    e2e_s: float,
    overhead: float,
    counters: dict,
    wall_s: float,
    gateway: dict | None = None,
    client_latency_s: float = 0.0,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase (see ``README.md``)."""
    per = max(requests, 1)
    self_ms = {name: seconds * 1000.0 / per for name, seconds in tracer.self_s.items()}
    windows = tracer.intervals["sharded.solve_many"]
    window_s = [end - start for start, end, _ in windows]
    asolve_s = [end - start for start, end, _ in tracer.intervals["gateway.asolve"]]
    apply_s = [end - start for start, end, _ in tracer.intervals["sharded.apply_delta"]]
    amutate_s = [end - start for start, end, _ in tracer.intervals["gateway.amutate"]]
    served = counters["per_shard"]
    gateway = gateway or {}
    requests_in = gateway.get("admitted", 0) + gateway.get("coalesced", 0)
    metrics = {
        "csr.root_bfs_ms": (self_ms.get("csr.root_bfs", 0.0), "ms"),
        "fastpath.reweight_ms": (self_ms.get("fastpath.reweight", 0.0), "ms"),
        "fastpath.dijkstra_ms": (self_ms.get("fastpath.dijkstra", 0.0), "ms"),
        "fastpath.forest_crossing_ms": (self_ms.get("fastpath.forest_crossing", 0.0), "ms"),
        "fastpath.score_ms": (self_ms.get("fastpath.score", 0.0), "ms"),
        "fastpath.mehlhorn_calls": (tracer.calls["fastpath.forest_crossing"] / per, "count"),
        "steiner.phase23_ms": (self_ms.get("steiner.phase23", 0.0), "ms"),
        "adjust.adjust_ms": (self_ms.get("adjust.adjust", 0.0), "ms"),
        "pruning.bound_ms": (self_ms.get("pruning.bound", 0.0), "ms"),
        "pruning.prune_rate": (
            _share(counters["pairs_pruned"],
                   counters["pairs_pruned"] + counters["pairs_scored"]), "share"),
        "service.self_ms": (self_ms.get("service", 0.0), "ms"),
        "service.result_hit_rate": (
            _share(counters["result_hits"],
                   counters["result_hits"] + counters["result_misses"]), "share"),
        "service.score_hit_rate": (
            _share(counters["score_hits"],
                   counters["score_hits"] + counters["score_misses"]), "share"),
        "versioned.retained_share": (
            _share(counters["entries_retained"],
                   counters["entries_retained"] + counters["entries_invalidated"]),
            "share"),
        "sharded.solve_many_ms": (_mean(window_s) * 1000.0, "ms"),
        "sharded.keys_per_window": (_mean(len(set(q)) for _, _, q in windows), "count"),
        "sharded.shard_imbalance": (
            _share(max(served), _mean(served)) if served else 0.0, "ratio"),
        "sharded.apply_delta_ms": (_mean(apply_s) * 1000.0, "ms"),
        "gateway.wait_ms": (_mean(spans.gateway_wait_seconds(tracer)) * 1000.0, "ms"),
        "gateway.window_size": (
            _share(gateway.get("window_size_sum", 0),
                   gateway.get("windows_dispatched", 0)), "count"),
        "gateway.coalesce_rate": (_share(gateway.get("coalesced", 0), requests_in), "share"),
        "gateway.shed": (float(gateway.get("shed", 0)), "count"),
        "gateway.executor_busy_share": (_share(sum(window_s), wall_s), "share"),
        "gateway.mutate_drain_ms": (
            (_mean(amutate_s) - _mean(apply_s)) * 1000.0 if amutate_s else 0.0, "ms"),
        "server.wire_ms": (
            (client_latency_s - _mean(asolve_s)) * 1000.0 if asolve_s else 0.0, "ms"),
        "protocol.codec_ms": (self_ms.get("protocol.codec", 0.0), "ms"),
        "trace.unattributed_ms": ((e2e_s - tracer.total_self()) * 1000.0 / per, "ms"),
        "trace.overhead_share": (overhead, "share"),
    }
    return metrics


# ----------------------------------------------------------------------
# cold-ba
# ----------------------------------------------------------------------
def _solve_stream(service, queries, every, between, seconds, tracer=None):
    """Closed loop over ``queries`` for ``seconds``, calling ``between()``
    after every ``every`` queries.

    With a ``tracer``, every second query is solved with the layer
    wrappers installed, so traced and untraced solves sample the same
    stretch of machine time.  Returns ``(latencies, traced_latencies,
    served, failed)``.
    """
    deadline = time.perf_counter() + seconds
    latencies, traced_latencies, served, failed = [], [], [], 0
    for i, query in enumerate(queries):
        if time.perf_counter() >= deadline:
            break
        if i and i % every == 0:
            between()
        traced = tracer is not None and i % 2 == 1
        if traced:
            spans.install_layers(tracer)
        started = time.perf_counter()
        try:
            result = service.solve(query)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            failed += 1
            continue
        finally:
            elapsed = time.perf_counter() - started
            if traced:
                tracer.uninstall()
        (traced_latencies if traced else latencies).append(elapsed)
        served.append((query, result))
    else:
        raise RuntimeError("request stream exhausted before the phase ended")
    return latencies, traced_latencies, served, failed


def _timed_apply(service, mirror, delta) -> float:
    """One in-process ``apply_delta``, checked first against the live mirror."""
    inputs.check_applicable(mirror, delta)
    started = time.perf_counter()
    service.apply_delta(delta)
    elapsed = time.perf_counter() - started
    _apply(mirror, delta)
    return elapsed


def _apply(graph, delta) -> None:
    for u, v in delta.deletes:
        graph.remove_edge(u, v)
    for u, v in delta.inserts:
        graph.add_edge(u, v)


def cold_ba(seed: int, seconds: float, traced: bool, cfg: ColdConfig = COLD_BA,
            service_factory=ConnectorService) -> Outcome:
    out = Outcome()

    def set_up():
        started = time.perf_counter()
        csr = inputs.ba_csr(cfg.nodes, cfg.attachment, seed)
        service = service_factory(None, csr=csr)
        out.setup_s.append(time.perf_counter() - started)
        return csr, service

    csr, service = set_up()
    *queries, warm_query = inputs.distinct_queries(
        range(cfg.nodes), STREAM_LENGTH // 25 + 1, cfg.query_size, seed + 1
    )
    mirror = csr.to_graph()
    pairs = inputs.undo_pairs(
        mirror, len(queries) // cfg.queries_per_mutate, cfg.delta_inserts, seed + 2
    )
    # Process warm-up (first-call paths in numpy/scipy), on a throwaway
    # service with a query outside the stream: the measured service and
    # the stream stay cold.
    service_factory(None, csr=csr).solve(warm_query)
    out.digests = {
        "graph": inputs.csr_digest(csr),
        "requests": inputs.stream_digest(queries),
        "deltas": inputs.delta_digest(d for pair in pairs for d in pair),
    }

    def between():
        """A delta and its undo, then one more set-up sample.

        A set-up takes milliseconds, so its samples are spread over the
        run: their median then does not hinge on the machine's state at
        one instant.
        """
        for delta in next(remaining):
            out.mutate_s.append(_timed_apply(service, mirror, delta))
        if len(out.setup_s) < cfg.setup_repeats:
            set_up()

    remaining = iter(pairs)
    tracer = spans.Tracer() if traced else None
    before = _counters(service.stats())
    latencies, traced_lat, served, failed = _solve_stream(
        service, queries, cfg.queries_per_mutate, between, seconds, tracer
    )
    out.latencies_s, out.wall_s, out.failed = latencies, sum(latencies), failed
    out.attempted = len(served) + failed + len(out.mutate_s)
    if traced:
        e2e = sum(traced_lat)
        out.per_layer = layer_metrics(
            tracer, requests=len(traced_lat), e2e_s=e2e,
            overhead=_share(_mean(traced_lat), _mean(latencies)) - 1.0,
            counters=_delta(before, _counters(service.stats())), wall_s=e2e,
        )

    rng = random.Random(seed + 3)
    for query, result in rng.sample(served, min(cfg.checks, len(served))):
        want = checks.expected(query, csr=csr)
        got = checks.summary(result_to_payload(result))
        if got != want:
            out.mismatch(checks.describe(query, want, got))
    return out


# ----------------------------------------------------------------------
# The ring workloads
# ----------------------------------------------------------------------
@dataclass
class _Tower:
    service: ShardedConnectorService
    gateway: AsyncGateway
    server: GatewayServer
    client: AsyncConnectorClient

    async def close(self) -> None:
        try:
            await self.client.aclose()
            await self.server.aclose()
            await self.gateway.aclose()
        finally:
            self.service.close()
        assert_no_orphans()


async def _build_tower(graph, pool, cfg: RingConfig, service_cls) -> _Tower:
    service = service_cls(graph, n_shards=cfg.shards)
    gateway = AsyncGateway(service, max_batch=cfg.max_batch, max_wait_ms=cfg.max_wait_ms)
    server = await GatewayServer(gateway, port=0).start()
    client = await AsyncConnectorClient.connect(server.host, server.port)
    tower = _Tower(service, gateway, server, client)
    try:
        await asyncio.gather(*(client.solve(query) for query in pool))
    except BaseException:
        await tower.close()
        raise
    return tower


@dataclass
class _WriteState:
    """Epoch bookkeeping shared by the readers and the writer."""

    epoch: int = 0
    started: int = 0
    mutating: bool = False
    reads: int = 0
    next_write: int = 0
    wanted: asyncio.Event | None = None
    applied: list = field(default_factory=list)


async def _read_phase(tower, pool, cursor, seconds, callers, on_reply, state=None):
    """Closed-loop readers until ``seconds`` pass; returns latencies etc."""
    latencies: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds

    async def reader():
        nonlocal failed
        while time.perf_counter() < deadline:
            index = next(cursor)
            epoch, started_writes = (
                (state.epoch, state.started) if state and not state.mutating
                else (None, None)
            )
            started = time.perf_counter()
            try:
                reply = await tower.client.solve(pool[index])
            except Exception:  # noqa: BLE001 - a failed request is counted
                failed += 1
                continue
            latencies.append(time.perf_counter() - started)
            if state is not None:
                stable = epoch is not None and state.started == started_writes
                on_reply(index, reply, epoch if stable else None)
                state.reads += 1
                if state.reads >= state.next_write:
                    state.wanted.set()
            else:
                on_reply(index, reply, 0)

    started = time.perf_counter()
    await asyncio.gather(*(reader() for _ in range(callers)))
    return latencies, failed, time.perf_counter() - started


async def _writer(tower, state: _WriteState, deltas, mirror, mutate_s, stop, cfg):
    for delta in deltas:
        await state.wanted.wait()
        if stop.is_set():
            return
        inputs.check_applicable(mirror, delta)
        state.mutating = True
        state.started += 1
        started = time.perf_counter()
        try:
            epoch = await tower.client.mutate(delta)
        finally:
            state.mutating = False
        mutate_s.append(time.perf_counter() - started)
        _apply(mirror, delta)
        state.applied.append(delta)
        state.epoch = epoch
        # Reads that finished during the write must not trigger the next
        # one, but a stop that arrived meanwhile must still end the loop.
        state.next_write = state.reads + cfg.reads_per_write
        if not stop.is_set():
            state.wanted.clear()
    raise RuntimeError("delta stream exhausted before the phase ended")


async def _snapshot(tower) -> tuple[dict, dict]:
    gateway = tower.gateway.stats()
    counters = _counters(await tower.gateway.aservice_stats())
    return counters, {
        "admitted": gateway.admitted, "coalesced": gateway.coalesced,
        "shed": gateway.shed, "windows_dispatched": gateway.windows_dispatched,
        "window_size_sum": gateway.window_size_sum,
    }


async def _ring(seed: int, seconds: float, traced: bool, cfg: RingConfig,
                service_cls) -> Outcome:
    out = Outcome()
    tower = None
    for _ in range(cfg.setup_repeats):
        if tower is not None:
            await tower.close()
        started = time.perf_counter()
        graph = inputs.er_graph(cfg.nodes, cfg.edges, seed)
        pool = inputs.distinct_queries(sorted(graph.nodes()), cfg.pool, cfg.query_size, seed + 1)
        tower = await _build_tower(graph, pool, cfg, service_cls)
        out.setup_s.append(time.perf_counter() - started)
    try:
        return await _ring_measure(out, tower, graph, pool, seed, seconds, traced, cfg)
    finally:
        await tower.close()


async def _ring_measure(out, tower, graph, pool, seed, seconds, traced, cfg) -> Outcome:
    if cfg.reads_per_write:
        stream = inputs.rotating_stream(
            cfg.pool, cfg.hot_per_epoch, cfg.reads_per_write, cfg.max_deltas + 1,
            cfg.zipf, seed + 4,
        )
    else:
        stream = inputs.zipf_stream(cfg.pool, STREAM_LENGTH, cfg.zipf, seed + 4)
    cursor = itertools.cycle(stream)
    mirror = graph.copy()
    n_deltas = cfg.max_deltas if cfg.reads_per_write else cfg.mutate_probes
    deltas = inputs.delta_stream(mirror, n_deltas, cfg.delta_inserts, seed + 2)
    out.digests = {
        "graph": inputs.graph_digest(graph),
        "requests": inputs.stream_digest(pool) + ":" + inputs.stream_digest(stream),
        "deltas": inputs.delta_digest(deltas),
    }

    # Correctness state.  Read-only: every reply vs its pool entry's cold
    # answer.  Mutating: every reply at one (epoch, query) must agree, and a
    # seeded sample per epoch is checked cold against the mutated graph.
    seen: dict[tuple[int, int], tuple] = {}
    if cfg.reads_per_write is None:
        csr = CSRGraph.from_graph(graph)
        for index, query in enumerate(pool):
            seen[(0, index)] = checks.expected(query, csr=csr)

    def on_reply(index, reply, epoch):
        if epoch is None:
            return
        got = checks.summary(reply)
        want = seen.setdefault((epoch, index), got)
        if got != want:
            out.mismatch(checks.describe(pool[index], want, got))

    state = stop = writer = None
    if cfg.reads_per_write:
        state = _WriteState(next_write=cfg.reads_per_write, wanted=asyncio.Event())
        stop = asyncio.Event()
        writer = asyncio.get_running_loop().create_task(
            _writer(tower, state, deltas, mirror, out.mutate_s, stop, cfg)
        )

    async def phase(duration):
        return await _read_phase(tower, pool, cursor, duration, cfg.callers, on_reply, state)

    try:
        if not traced:
            latencies, failed, wall = await phase(seconds)
        else:
            # Untraced and traced chunks alternate, so both halves sample
            # the same stretch of machine time.
            tracer = spans.Tracer()
            latencies, traced_lat, failed, wall, traced_wall = [], [], 0, 0.0, 0.0
            counters = gateway = None
            chunk = seconds / (2 * TRACE_CHUNKS)
            for _ in range(TRACE_CHUNKS):
                lat, fails, elapsed = await phase(chunk)
                latencies += lat
                failed += fails
                wall += elapsed
                spans.install_layers(tracer)
                try:
                    counters_before, gateway_before = await _snapshot(tower)
                    lat, fails, elapsed = await phase(chunk)
                    counters_after, gateway_after = await _snapshot(tower)
                finally:
                    tracer.uninstall()
                traced_lat += lat
                failed += fails
                traced_wall += elapsed
                counters = _accumulate(counters, _delta(counters_before, counters_after))
                gateway = _accumulate(gateway, {
                    k: gateway_after[k] - gateway_before[k] for k in gateway_before
                })
            # Self times cover the traced reads; a read-only workload's
            # mutate probe contributes only its mutate intervals.
            reads_self, reads_calls = dict(tracer.self_s), tracer.calls.copy()
            if cfg.reads_per_write is None:
                spans.install_layers(tracer)
                try:
                    unmutated, _ = await _snapshot(tower)
                    out.mutate_s = await _ring_probe(tower, deltas, mirror)
                    mutated, _ = await _snapshot(tower)
                finally:
                    tracer.uninstall()
                counters = _accumulate(counters, _delta(unmutated, mutated))
            tracer.self_s, tracer.calls = reads_self, reads_calls
            out.per_layer = layer_metrics(
                tracer, requests=len(traced_lat), e2e_s=traced_wall,
                overhead=_share(_mean(traced_lat), _mean(latencies)) - 1.0,
                counters=counters, wall_s=traced_wall, gateway=gateway,
                client_latency_s=_mean(traced_lat),
            )
            latencies += traced_lat
            wall += traced_wall
        if cfg.reads_per_write is None and not traced:
            out.mutate_s = await _ring_probe(tower, deltas, mirror)
    finally:
        if writer is not None:
            stop.set()
            state.wanted.set()
            await writer

    out.latencies_s, out.wall_s = latencies, wall
    out.attempted = len(latencies) + failed + len(out.mutate_s)
    out.failed += failed
    if state is not None:
        _check_epochs(out, pool, graph, state.applied, seen, seed)
    return out


async def _ring_probe(tower, deltas, mirror) -> list[float]:
    """Mutate round trips after a read-only phase, each delta checked first."""
    times = []
    for delta in deltas:
        inputs.check_applicable(mirror, delta)
        started = time.perf_counter()
        await tower.client.mutate(delta)
        times.append(time.perf_counter() - started)
        _apply(mirror, delta)
    return times


def _check_epochs(out, pool, graph, applied, seen, seed) -> None:
    """One seeded reply per epoch vs a cold solve on that epoch's graph."""
    rng = random.Random(seed + 3)
    host = graph.copy()
    by_epoch: dict[int, list[int]] = {}
    for epoch, index in sorted(seen):
        by_epoch.setdefault(epoch, []).append(index)
    for epoch in range(len(applied) + 1):
        if epoch > 0:
            _apply(host, applied[epoch - 1])
        indices = by_epoch.get(epoch)
        if not indices:
            continue
        index = rng.choice(indices)
        want = checks.expected(pool[index], csr=CSRGraph.from_graph(host))
        got = seen[(epoch, index)]
        if got != want:
            out.mismatch(f"epoch {epoch}: " + checks.describe(pool[index], want, got))


def ring(seed: int, seconds: float, traced: bool, cfg: RingConfig,
         service_cls=ShardedConnectorService) -> Outcome:
    return asyncio.run(_ring(seed, seconds, traced, cfg, service_cls))


WORKLOADS = {
    "cold-ba": lambda seed, seconds, traced: cold_ba(seed, seconds, traced),
    "hot-ring": lambda seed, seconds, traced: ring(seed, seconds, traced, HOT_RING),
    "mutate-ring": lambda seed, seconds, traced: ring(seed, seconds, traced, MUTATE_RING),
}
