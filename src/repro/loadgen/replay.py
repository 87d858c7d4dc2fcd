"""Open-loop trace replay against a live gateway server.

:func:`replay_trace` is the harness's measurement instrument: it fires
every record of a :class:`~repro.loadgen.trace.Trace` at a live
``repro serve`` socket at its recorded offset (optionally time-scaled),
through one multiplexing :class:`AsyncConnectorClient` connection, and
reports what the *client* observed (per-request latency percentiles,
throughput, errors) next to what the *server* counted (shed, coalesced,
its own latency reservoir) over the replay window.

The replay is **open-loop**: arrival times come from the trace, never
from completions, so a slow server faces the arrival rate it would face
in production instead of being graded on a schedule it implicitly slowed
down — the coordinated-omission trap closed-loop benchmarks fall into.

Requests that the server sheds or fails are counted, not raised: a load
test's job is to measure degradation, not to crash on it.  Result
payloads are retained (``keep_results``) so callers can spot-check
replayed answers bit-for-bit against one-shot solves — the identity
contract holds under load or the tower is wrong.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.gateway import nearest_rank as percentile
from repro.loadgen.trace import Trace
from repro.serving.server import AsyncConnectorClient

__all__ = ["ReplayReport", "replay_trace"]


@dataclass(frozen=True)
class ReplayReport:
    """What one replay observed, client- and server-side.

    Client-side numbers cover exactly this replay's requests.  The
    ``shed``/``coalesced`` counters are *deltas* of the server's lifetime
    counters across the replay window, so a shared long-lived server
    still yields per-run rates; ``server_stats`` keeps the raw final
    stats payload for anything the summary leaves out.
    """

    requests: int
    completed: int
    errors: int
    duration_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    shed: int
    coalesced: int
    latencies_ms: tuple[float, ...] = ()
    error_messages: tuple[str, ...] = ()
    results: tuple = ()
    server_stats: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of replay wall-clock."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def shed_rate(self) -> float:
        """Shed requests as a fraction of this replay's request count."""
        if not self.requests:
            return 0.0
        return self.shed / self.requests

    @property
    def coalesce_rate(self) -> float:
        """Coalesced admissions as a fraction of this replay's requests."""
        if not self.requests:
            return 0.0
        return self.coalesced / self.requests

    @property
    def error_rate(self) -> float:
        if not self.requests:
            return 0.0
        return self.errors / self.requests

    def summary(self) -> dict:
        """The JSON-ready digest benchmarks and the CLI print."""
        return {
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "coalesced": self.coalesced,
            "coalesce_rate": round(self.coalesce_rate, 4),
            "error_rate": round(self.error_rate, 4),
        }


def _gateway_counters(stats_payload: dict) -> tuple[int, int]:
    gateway = stats_payload.get("gateway", {}) if stats_payload else {}
    return int(gateway.get("shed", 0)), int(gateway.get("coalesced", 0))


async def replay_trace(
    trace: Trace,
    host: str,
    port: int,
    *,
    speed: float = 1.0,
    keep_results: bool = False,
) -> ReplayReport:
    """Replay ``trace`` open-loop against ``host:port``; measure everything.

    ``speed`` rescales the arrival schedule (2.0 fires twice as fast) —
    the knob that turns one recorded session into a stress sweep.  With
    ``keep_results`` the per-request connector documents are retained in
    trace order (``None`` where the request errored) for bit-identity
    spot checks.
    """
    schedule = trace.scaled(speed) if speed != 1.0 else trace
    latencies_ms: list[float] = []
    errors: list[str] = []
    results: list = [None] * len(schedule.records)

    async with await AsyncConnectorClient.connect(host, port) as client:
        before = await client.stats()
        loop = asyncio.get_running_loop()
        epoch = loop.time()

        async def fire(index: int, record) -> None:
            delay = epoch + record.offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            started = loop.time()
            try:
                payload = await client.solve(record.query, record.options)
            except Exception as exc:  # noqa: BLE001 - measured, not raised
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                latencies_ms.append((loop.time() - started) * 1000.0)
                if keep_results:
                    results[index] = payload

        await asyncio.gather(
            *(
                fire(index, record)
                for index, record in enumerate(schedule.records)
            )
        )
        duration = loop.time() - epoch
        after = await client.stats()

    shed_before, coalesced_before = _gateway_counters(before)
    shed_after, coalesced_after = _gateway_counters(after)
    return ReplayReport(
        requests=len(schedule.records),
        completed=len(latencies_ms),
        errors=len(errors),
        duration_s=duration,
        p50_ms=percentile(latencies_ms, 0.50),
        p95_ms=percentile(latencies_ms, 0.95),
        p99_ms=percentile(latencies_ms, 0.99),
        shed=shed_after - shed_before,
        coalesced=coalesced_after - coalesced_before,
        latencies_ms=tuple(latencies_ms),
        error_messages=tuple(errors),
        results=tuple(results) if keep_results else (),
        server_stats=after,
    )
