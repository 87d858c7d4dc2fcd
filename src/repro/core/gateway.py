"""AsyncGateway — an asyncio serving front-end with micro-batching.

Every entry point below this module assumes the caller already holds a
fully-formed batch: :meth:`ConnectorService.solve_many` and the sharded
router both take a *list* of queries.  Real serving traffic arrives one
request at a time, concurrently — the ROADMAP's async-serving item.  The
gateway is the layer in between:

* **bounded admission queue** — :meth:`AsyncGateway.asolve` awaits on a
  queue with ``max_queue`` slots, so a flood of arrivals backpressures
  the callers instead of growing memory without bound.  The non-blocking
  :meth:`try_solve` variant *sheds* instead: when the queue is full it
  raises :class:`GatewayOverloadedError` immediately (and counts the shed
  request), the standard fast-fail admission-control policy;
* **work-conserving micro-batch windows** — a single batcher task
  dispatches each window through the backing service's ``solve_many`` on
  a thread executor, and closes it on whichever comes first: the
  executor is idle (no earlier window's solve is still running, so
  waiting would only add latency), the window holds ``max_batch``
  requests, or its oldest request has waited ``max_wait_ms`` for a busy
  executor (the window is then staged behind the running one).  The
  event loop never blocks on a sweep, and because the executor is
  single-threaded the backing service (which is not thread-safe) only
  ever sees one batch at a time — while a window is solving, arrivals
  pile into the next one, which dispatches the moment the executor
  frees;
* **cross-arrival coalescing** — the sharded router already dedups
  identical keys *within* a batch; the gateway extends that across
  *arrival time*.  Requests are keyed on
  ``(query, SolveOptions.stable_digest())``; an arrival whose key is
  already queued or in flight shares the existing future — one solve,
  many awaiters — which is how a burst of identical hot queries costs one
  sweep no matter how it interleaves with the windows;
* **observability** — :meth:`stats` snapshots a :class:`GatewayStats`:
  queue depth, in-flight requests, coalesced/shed counters, windows
  dispatched and their sizes, and a bounded reservoir of per-request
  latencies (admission to result) behind
  :meth:`GatewayStats.percentile` for p50/p95/p99 SLO checks;
* **graceful shutdown** — :meth:`aclose` stops admission, drains every
  queued request through normal windows, waits for in-flight windows,
  and resolves every outstanding future.  After ``aclose()`` the gateway
  is back in its idle state: the next :meth:`asolve` restarts the
  batcher ("reopen"), so one gateway can outlive maintenance windows.

Identity contract
-----------------

The gateway never computes: it only groups requests into ``solve_many``
calls on the backing service, and both backing services are bit-identical
to the one-shot :func:`~repro.core.wiener_steiner.wiener_steiner`.  Hence
connectors returned through :meth:`asolve` are bit-identical to one-shot
solves for *any* interleaving of concurrent submissions, any window
configuration, over a single service or a sharded one —
``tests/test_gateway.py`` fuzzes exactly this.

Quickstart
----------
::

    service = ConnectorService(graph)
    async with AsyncGateway(service, max_batch=16, max_wait_ms=2.0) as gw:
        results = await asyncio.gather(*(gw.asolve(q) for q in queries))
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.options import SolveOptions
from repro.core.result import ConnectorResult
from repro.graphs.graph import Node

__all__ = [
    "AsyncGateway",
    "GatewayClosedError",
    "GatewayOverloadedError",
    "GatewayStats",
    "nearest_rank",
    "service_health",
]


def nearest_rank(samples, fraction: float) -> float:
    """Nearest-rank percentile: the ``⌈fraction·n⌉``-th smallest sample.

    ``fraction`` must lie in ``[0, 1]``; 0.0 when ``samples`` is empty.
    The gateway's latency reservoir and the trace replayer both report
    their p50/p95/p99 through this one rule.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def service_health(stats) -> dict:
    """Summarize a backing service's snapshot as a health verdict.

    Accepts whatever the gateway's backing service returned from
    ``stats()`` — a :class:`~repro.core.sharded.ShardedStats` (the
    replicated ring, which carries real degradation state), a plain
    :class:`~repro.core.service.ServiceStats` (a single in-process
    replica: alive means healthy), or ``None`` (the service exposes no
    stats).  Returns a JSON-ready dict with at least ``status``
    (``"ok"`` or ``"degraded"``) and ``degraded``; for a sharded service
    it adds the ring's redundancy picture — ``replication``,
    ``dead_shards``, and the lifetime ``failovers`` / ``reconnects`` /
    ``shards_failed`` counters — so a load balancer or supervisor can
    read "serving, but with less redundancy than configured" straight
    off the gateway's ``stats`` op without knowing the service type.
    """
    if stats is None:
        return {"status": "ok", "degraded": False}
    dead = tuple(getattr(stats, "dead_shards", ()))
    health = {
        "status": "degraded" if dead else "ok",
        "degraded": bool(dead),
    }
    if hasattr(stats, "replication"):
        health.update(
            replication=stats.replication,
            dead_shards=list(dead),
            failovers=stats.failovers,
            reconnects=stats.reconnects,
            shards_failed=stats.shards_failed,
        )
    return health


class GatewayOverloadedError(RuntimeError):
    """Raised by :meth:`AsyncGateway.try_solve` when the queue is full."""


class GatewayClosedError(RuntimeError):
    """Raised when a request arrives while the gateway is draining."""


@dataclass(frozen=True)
class GatewayStats:
    """A point-in-time snapshot of the gateway (serving observability).

    ``queued``/``in_flight`` are instantaneous; every other field counts
    over the gateway's lifetime (surviving ``aclose()``/reopen cycles).
    ``window_sizes`` holds only the most *recent* windows (bounded, so a
    long-lived daemon's snapshot stays small); ``window_size_sum`` and
    ``windows_dispatched`` carry the exact lifetime totals behind
    :attr:`mean_window_size`.  ``latency_samples`` is a bounded reservoir
    of the most recent per-request latencies in seconds (admission to
    result), feeding :meth:`percentile` for p50/p95/p99 SLO checks.
    """

    queued: int
    in_flight: int
    admitted: int
    coalesced: int
    shed: int
    windows_dispatched: int
    window_sizes: tuple[int, ...]
    window_size_sum: int
    results_served: int
    failures: int
    latency_samples: tuple[float, ...] = ()

    @property
    def mean_window_size(self) -> float:
        """Mean requests per dispatched window (0.0 before any window)."""
        if not self.windows_dispatched:
            return 0.0
        return self.window_size_sum / self.windows_dispatched

    def percentile(self, p: float) -> float:
        """The ``p``-th latency percentile in seconds (``0 <= p <= 1``).

        :func:`nearest_rank` over the recent-sample reservoir; 0.0 when
        no request has been served yet.
        """
        return nearest_rank(self.latency_samples, p)


class _Request:
    """One admitted request: its key, payload, and the shared future."""

    __slots__ = ("key", "query_set", "options", "future", "admitted_at")

    def __init__(self, key, query_set, options, future, admitted_at) -> None:
        self.key = key
        self.query_set = query_set
        self.options = options
        self.future = future
        self.admitted_at = admitted_at


#: Queue sentinel telling the batcher to finish the current drain and exit.
_CLOSE = object()


class AsyncGateway:
    """Serve concurrently-arriving queries through micro-batched windows.

    Parameters
    ----------
    service:
        The backing :class:`~repro.core.service.ConnectorService` or
        :class:`~repro.core.sharded.ShardedConnectorService` (anything
        with ``solve_many(queries, options)``).  The gateway owns the
        *scheduling* of the service, not its lifetime: closing the
        gateway leaves the service (and its warm caches) untouched.
    options:
        Default :class:`SolveOptions` for requests that pass none; falls
        back to the service's own defaults.
    max_batch:
        Most requests per dispatched window (≥ 1).
    max_wait_ms:
        Longest a request waits for a busy executor: a window whose
        oldest request has waited this long is staged behind the running
        one (within ``max_pending_windows``) instead of filling further.
        An idle executor never makes a request wait.  ``0`` disables
        waiting: every window closes as soon as the queue stops yielding
        requests synchronously.
    max_queue:
        Admission-queue bound; :meth:`asolve` backpressures (awaits) and
        :meth:`try_solve` sheds when it is full.
    max_pending_windows:
        Most windows dispatched but not yet resolved (≥ 1).  Without this
        bound a slow service would let the batcher drain the queue into
        an ever-growing pile of waiting windows and ``max_queue`` would
        never bind; with it, the batcher stalls once the pile is full,
        the queue genuinely fills, and admission backpressure engages.
        The default of 2 keeps one window solving and one staged.
    """

    def __init__(
        self,
        service,
        options: SolveOptions | None = None,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        max_pending_windows: int = 2,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be non-negative, got {max_wait_ms}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be at least 1, got {max_queue}")
        if max_pending_windows < 1:
            raise ValueError(
                f"max_pending_windows must be at least 1, got {max_pending_windows}"
            )
        self._service = service
        self._options = options
        self._max_batch = max_batch
        self._max_wait = max_wait_ms / 1000.0
        self._max_queue = max_queue
        self._max_pending_windows = max_pending_windows
        self._window_slots: asyncio.Semaphore | None = None
        # Lazily-created per-run state (needs a running event loop; reset
        # by aclose() so the gateway can be reopened).
        self._queue: asyncio.Queue | None = None
        self._batcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._inflight: dict[object, asyncio.Future] = {}
        self._closing = False
        self._close_done: asyncio.Event | None = None
        self._close_task: asyncio.Task | None = None
        # Lifetime counters (survive aclose/reopen).  Window sizes keep a
        # bounded recent sample plus a running sum — an unbounded list
        # would be a slow leak in a daemon dispatching windows for days.
        self._admitted = 0
        self._coalesced = 0
        self._shed = 0
        self._windows = 0
        self._window_sizes: deque[int] = deque(maxlen=256)
        self._window_size_sum = 0
        self._served = 0
        self._failures = 0
        # Recent per-request latencies (admission → result, seconds):
        # the reservoir behind GatewayStats.percentile(), bounded for the
        # same slow-leak reason as the window sizes.
        self._latencies: deque[float] = deque(maxlen=512)

    @property
    def service(self):
        """The backing service (shared; the gateway does not own it)."""
        return self._service

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _merge(self, options: SolveOptions | None) -> SolveOptions:
        if options is not None:
            if not isinstance(options, SolveOptions):
                raise TypeError(
                    f"options must be a SolveOptions, got {type(options).__name__}"
                )
            return options
        if self._options is not None:
            return self._options
        return self._service.options

    def _ensure_running(self) -> None:
        if self._closing:
            raise GatewayClosedError("gateway is draining; retry after aclose()")
        if (
            self._batcher is not None
            and not self._batcher.done()
            and self._batcher.get_loop() is not asyncio.get_running_loop()
        ):
            # A live batcher on another loop means the gateway was used in
            # one asyncio.run() and reused in a second without aclose().
            # Its queue and futures belong to the (likely closed) old
            # loop; failing clearly here beats a RuntimeError from deep
            # inside Queue internals — or a silent hang.
            raise GatewayClosedError(
                "gateway is still bound to another event loop; "
                "aclose() it there before reusing it"
            )
        if self._batcher is None or self._batcher.done():
            if self._batcher is not None:
                # A done-but-not-nulled batcher means it *crashed* (a
                # normal aclose() nulls it): the task was cancelled out
                # from under us, say by a framework tearing down its
                # scope.  Fail every stranded future loudly — rebuilding
                # the queue would abandon them pending, and later equal
                # keys would coalesce onto dead futures forever.
                for key, future in list(self._inflight.items()):
                    if not future.done():
                        future.set_exception(
                            GatewayClosedError(
                                "gateway batcher died; request abandoned"
                            )
                        )
                        future.exception()  # consumed here if unawaited
                    self._inflight.pop(key, None)
            # First request (or first after aclose/reopen/crash): build
            # the run-scoped machinery on the *current* loop.  The
            # executor is *reused* if it exists — a crashed batcher may
            # have left a window mid-solve on its thread, and the backing
            # service is not thread-safe, so new windows must queue
            # behind that solve, never run beside it on a fresh thread.
            self._queue = asyncio.Queue(maxsize=self._max_queue)
            self._window_slots = asyncio.Semaphore(self._max_pending_windows)
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="gateway-solve"
                )
            self._batcher = asyncio.get_running_loop().create_task(
                self._batch_loop(), name="gateway-batcher"
            )

    def _admit(self, query: Iterable[Node], options: SolveOptions | None):
        """Common admission path: returns ``(request | None, future)``.

        ``request`` is ``None`` when the key coalesced onto an existing
        in-flight future and nothing must be enqueued.
        """
        # Validate before spinning anything up: a bad options value or an
        # unhashable query on an idle gateway must not leave a batcher
        # task and executor thread running with no caller responsible for
        # closing them.
        opts = self._merge(options)
        query_set = frozenset(query)
        key = (query_set, opts.stable_digest())
        self._ensure_running()
        existing = self._inflight.get(key)
        if existing is not None:
            self._coalesced += 1
            return None, existing
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        return _Request(key, query_set, opts, future, loop.time()), future

    async def asolve(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> ConnectorResult:
        """Solve one query through the batching window (backpressuring).

        Identical in-flight requests share one future and one solve; a
        full admission queue makes this call *wait*, which is the
        backpressure signal concurrent producers see.
        """
        request, future = self._admit(query, options)
        if request is not None:
            try:
                await self._queue.put(request)
            except BaseException:
                # Cancelled mid-backpressure.  Other callers may have
                # coalesced onto this future in the meantime, so it must
                # still resolve: hand the request off if a slot opened up,
                # otherwise fail it as shed — never leave it pending (a
                # hang for coalescers) and never cancel it (a spurious
                # CancelledError in callers that were not cancelled).
                # While draining, a hand-off could slip in behind the
                # _CLOSE sentinel and never dispatch, so shed instead.
                handed_off = False
                if not self._closing:
                    try:
                        self._queue.put_nowait(request)
                        handed_off = True
                    except asyncio.QueueFull:
                        pass
                if handed_off:
                    self._admitted += 1
                else:
                    self._inflight.pop(request.key, None)
                    self._shed += 1
                    if not future.done():
                        future.set_exception(
                            GatewayOverloadedError(
                                "request cancelled while waiting for a "
                                "full admission queue"
                            )
                        )
                        future.exception()  # consumed here if nobody coalesced
                raise
            self._admitted += 1
        # shield(): several awaiters may share this future; one caller
        # timing out must not cancel the solve for the others.
        return await asyncio.shield(future)

    def try_solve(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> asyncio.Future:
        """Admit without waiting: full queue ⇒ :class:`GatewayOverloadedError`.

        The load-shedding admission path: returns an awaitable for the
        (possibly shared) result on success, and fails fast — counting
        the shed request — when the gateway is saturated.  The returned
        future is a :func:`asyncio.shield` wrapper: cancelling it (e.g. a
        caller-side ``wait_for`` timeout) never cancels the underlying
        coalesced solve other callers may be awaiting.
        """
        request, future = self._admit(query, options)
        if request is not None:
            try:
                self._queue.put_nowait(request)
            except asyncio.QueueFull:
                self._inflight.pop(request.key, None)
                future.cancel()
                self._shed += 1
                raise GatewayOverloadedError(
                    f"admission queue full ({self._max_queue} requests)"
                ) from None
            self._admitted += 1
        wrapper = asyncio.shield(future)
        # Fire-and-forget callers may never await the wrapper; mark its
        # exception retrieved so a failed window doesn't log "Future
        # exception was never retrieved" at GC (awaiters still raise).
        wrapper.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        return wrapper

    # ------------------------------------------------------------------
    # The batcher task
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        # The one pending queue read.  A window that closes while it waits
        # hands it to the next window instead of abandoning it: it may
        # already have claimed an arrival.
        getter: asyncio.Task | None = None
        # The newest window's solve.  The executor is FIFO, so once this
        # is done every earlier solve is too and the executor is idle —
        # even while the window's futures are still being resolved.
        solving: asyncio.Future | None = None
        closing = False
        try:
            while not closing:
                if getter is None:
                    item = await self._queue.get()
                else:
                    item, getter = await getter, None
                if item is _CLOSE:
                    break
                window = [item]
                deadline = loop.time() + self._max_wait
                while len(window) < self._max_batch:
                    try:
                        # Whatever is already queued joins for free.
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        remaining = deadline - loop.time()
                        if solving is None or solving.done() or remaining <= 0:
                            break  # executor idle, or waited out a busy one
                        if getter is None:
                            getter = loop.create_task(self._queue.get())
                        # Wake on an arrival, the executor freeing, or the
                        # deadline — whichever comes first.
                        await asyncio.wait(
                            (getter, solving),
                            timeout=remaining,
                            return_when=asyncio.FIRST_COMPLETED,
                        )
                        if not getter.done():
                            continue
                        item, getter = getter.result(), None
                    if item is _CLOSE:
                        closing = True
                        break
                    window.append(item)
                # A window slot bounds dispatched-but-unresolved windows:
                # while none is free the batcher stalls here, the admission
                # queue fills behind it, and producers feel backpressure.
                await self._window_slots.acquire()
                solving = self._dispatch(window)
        finally:
            # On a normal exit the pending read has nothing left to claim
            # (_CLOSE is the last item ever queued).  On a cancelled one,
            # an arrival it claimed stays in _inflight, failed on reopen.
            if getter is not None:
                getter.cancel()

    def _dispatch(self, window: list[_Request]) -> asyncio.Future:
        """Submit one window's solve to the executor; returns its future.

        Submitting here, not in the resolving task, puts the solve on the
        executor before the loop runs anything else; a tracked task then
        resolves the window's futures and frees its slot.

        A failure inside the service fails exactly the requests that
        caused it: when a grouped ``solve_many`` raises, the group is
        re-solved one request at a time so a single poisoned query (an
        unknown vertex, say) cannot fail the valid requests that merely
        shared its window.  The batcher and every other window are
        unaffected either way.
        """
        self._windows += 1
        self._window_sizes.append(len(window))
        self._window_size_sum += len(window)
        # One solve_many per distinct options value in the window: the
        # service API takes a single options argument per batch, and mixed
        # traffic must not collapse onto one request's tunables.
        groups: dict[SolveOptions, list[_Request]] = {}
        for request in window:
            groups.setdefault(request.options, []).append(request)

        def run() -> list[tuple[list[_Request], object, bool]]:
            resolved = []
            for opts, requests in groups.items():
                queries = [request.query_set for request in requests]
                try:
                    results = self._service.solve_many(queries, opts)
                except BaseException as exc:  # noqa: BLE001 - forwarded to futures
                    if len(requests) == 1:
                        resolved.append((requests, exc, False))
                        continue
                    # Per-request isolation: re-solve the group one by one
                    # so only the actually-failing requests fail.
                    for request in requests:
                        try:
                            single = self._service.solve_many(
                                [request.query_set], opts
                            )
                        except BaseException as single_exc:  # noqa: BLE001
                            if (
                                single_exc is not exc
                                and single_exc.__cause__ is None
                            ):
                                # Keep the group failure's diagnostic (a
                                # dead-shard message, say) chained under
                                # the re-solve's possibly-generic error.
                                single_exc.__cause__ = exc
                            resolved.append(([request], single_exc, False))
                        else:
                            if len(single) != 1:
                                resolved.append((
                                    [request],
                                    RuntimeError(
                                        f"service returned {len(single)} "
                                        "results for 1 query"
                                    ),
                                    False,
                                ))
                            else:
                                resolved.append(([request], single, True))
                else:
                    if len(results) != len(queries):
                        # A misbehaving service must fail this window's
                        # futures, not crash the dispatch task (which
                        # would strand other windows' futures at aclose).
                        resolved.append((
                            requests,
                            RuntimeError(
                                f"service returned {len(results)} results "
                                f"for {len(queries)} queries"
                            ),
                            False,
                        ))
                    else:
                        resolved.append((requests, results, True))
            return resolved

        loop = asyncio.get_running_loop()
        solved = loop.run_in_executor(self._executor, run)
        task = loop.create_task(self._resolve(solved, groups))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)
        # Bind the semaphore now: aclose() nulls the run-scoped state
        # before late done-callbacks get to run.
        task.add_done_callback(
            lambda _t, slots=self._window_slots: slots.release()
        )
        return solved

    async def _resolve(
        self, solved: asyncio.Future, groups: dict[SolveOptions, list[_Request]]
    ) -> None:
        """Resolve one window's futures from its executor solve."""
        loop = asyncio.get_running_loop()
        try:
            resolved = await solved
        except BaseException as exc:  # solve cancelled under us (teardown)
            resolved = [(requests, exc, False) for requests in groups.values()]
        for requests, value, ok in resolved:
            for position, request in enumerate(requests):
                self._inflight.pop(request.key, None)
                if request.future.done():
                    continue  # pragma: no cover - awaiter torn down early
                if ok:
                    request.future.set_result(value[position])
                    self._served += 1
                    self._latencies.append(loop.time() - request.admitted_at)
                else:
                    request.future.set_exception(value)
                    # Consumed here in case every awaiter already timed
                    # out of its shielded wait (no GC-time "exception was
                    # never retrieved" log); real awaiters still raise.
                    request.future.exception()
                    self._failures += 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    async def amutate(self, delta) -> int:
        """Advance the backing service one graph version; returns the epoch.

        Epoch flips are serialized with the solve windows: the apply runs
        on the gateway's single dispatch-executor thread, so every window
        dispatched before this call completes first and every window
        dispatched after it solves on the new graph — no window ever
        spans two graph versions.  Requests already *admitted* but not
        yet dispatched are answered at the epoch current when their
        window runs, which is the dispatch-time contract every layer of
        the tower keeps.

        The backing service does the real work
        (:meth:`~repro.core.service.ConnectorService.apply_delta` /
        :meth:`~repro.core.sharded.ShardedConnectorService.apply_delta`);
        a service without one (a bare ``solve_many`` duck type) raises
        ``TypeError``.
        """
        apply = getattr(self._service, "apply_delta", None)
        if not callable(apply):
            raise TypeError(
                f"backing service {type(self._service).__name__} has no "
                "apply_delta; only versioned services can mutate"
            )
        if self._closing:
            raise GatewayClosedError("gateway is draining; retry after aclose()")
        executor = self._executor
        if executor is not None:
            try:
                submitted = asyncio.get_running_loop().run_in_executor(
                    executor, apply, delta
                )
            except RuntimeError:  # executor shut down by a concurrent aclose
                pass  # idle now, so the direct call below is safe
            else:
                # Awaited outside the except so the service's own errors
                # (DeltaError, ShardLinkError) propagate untouched.
                return await submitted
        # Reached only with no executor (aclose() already drained every
        # window) — nothing shares the loop thread, so blocking is safe.
        return apply(delta)  # repro-lint: disable=RPR002

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    async def aservice_stats(self):
        """The backing service's stats snapshot, window-safe.

        The backing services are not thread-safe, and a running gateway
        may have a window mid-``solve_many`` on the executor thread — a
        sharded ``stats()`` issued concurrently from the event loop would
        race it on the shard pipes.  This routes the snapshot through the
        same single-thread executor, serializing it with the windows; on
        an idle (or just-closed) gateway no window can be in flight, so
        the direct call is safe.  Returns ``None`` when the service has
        no ``stats()``.
        """
        stats = getattr(self._service, "stats", None)
        if not callable(stats):
            return None
        executor = self._executor
        if executor is not None:
            try:
                submitted = asyncio.get_running_loop().run_in_executor(
                    executor, stats
                )
            except RuntimeError:  # executor shut down by a concurrent aclose
                pass  # idle now, so the direct call below is safe
            else:
                # Awaited outside the except: a RuntimeError raised by the
                # service's own stats() must propagate, not trigger a
                # second, window-racing call on the loop thread.
                return await submitted
        # Executor gone => gateway idle/closed; a counters snapshot off
        # the loop thread cannot race a window that no longer exists.
        return stats()  # repro-lint: disable=RPR002

    def stats(self) -> GatewayStats:
        """Counters plus the instantaneous queue/in-flight depth."""
        return GatewayStats(
            queued=self._queue.qsize() if self._queue is not None else 0,
            in_flight=len(self._inflight),
            admitted=self._admitted,
            coalesced=self._coalesced,
            shed=self._shed,
            windows_dispatched=self._windows,
            window_sizes=tuple(self._window_sizes),
            window_size_sum=self._window_size_sum,
            results_served=self._served,
            failures=self._failures,
            latency_samples=tuple(self._latencies),
        )

    async def aclose(self) -> None:
        """Drain the queue, resolve every future, return to idle.

        New requests are refused while draining
        (:class:`GatewayClosedError`); queued requests flow through
        normal windows so their callers still get answers.  Idempotent,
        and the gateway is reusable afterwards — the next request starts
        a fresh batcher ("reopen").  Cancellation-safe: a caller timing
        out of ``aclose()`` (e.g. under ``asyncio.wait_for``) abandons
        only its own wait — the drain itself runs as a shielded task, so
        the batcher never sees half-reset state and every queued future
        still resolves.
        """
        if self._batcher is None:
            return
        if self._closing:
            # A concurrent aclose() is already draining; wait for it
            # rather than re-running the teardown over nulled state.
            done = self._close_done
            if done is not None:
                await done.wait()
            return
        self._closing = True
        self._close_done = asyncio.Event()
        # A strong reference: asyncio keeps only weak refs to tasks, and
        # a cancelled caller must not let the drain be collected mid-way.
        self._close_task = asyncio.get_running_loop().create_task(
            self._drain_and_reset(), name="gateway-drain"
        )
        await asyncio.shield(self._close_task)

    async def _drain_and_reset(self) -> None:
        batcher = self._batcher
        try:
            if not batcher.done():
                # A dead batcher would never consume the sentinel (and a
                # full queue would block this put forever).
                await self._queue.put(_CLOSE)
            try:
                await batcher
            except asyncio.CancelledError:
                if not batcher.cancelled():
                    raise  # the *drain* was cancelled (loop teardown)
                # else: the batcher was cancelled out from under us —
                # teardown below must still complete.
            except Exception:  # pragma: no cover - batcher bug backstop
                pass
            # Dispatch tasks spawn from the batcher only, so after it
            # exits this set is complete.  return_exceptions: one faulty
            # dispatch must not skip the sweep and executor shutdown below.
            while self._dispatches:
                await asyncio.gather(
                    *tuple(self._dispatches), return_exceptions=True
                )
            # A future still registered here was admitted but never
            # dispatched — the normal path makes that impossible (the
            # batcher drains the queue before exiting), but a crashed
            # batcher strands exactly these; failing them loudly beats a
            # caller awaiting forever.
            for key, future in list(self._inflight.items()):
                if not future.done():
                    future.set_exception(
                        GatewayClosedError("gateway closed before dispatch")
                    )
                    future.exception()  # consumed here if unawaited
                self._inflight.pop(key, None)
            # Off-loop: normally the executor is idle here, but after a
            # crashed-batcher recovery it may still be finishing an
            # orphaned solve — a synchronous wait would freeze every
            # other coroutine on this loop for that solve's duration.
            executor = self._executor
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.shutdown(wait=True)
            )
        finally:
            self._queue = None
            self._batcher = None
            self._executor = None
            self._window_slots = None
            self._closing = False
            self._close_task = None
            self._close_done.set()
            self._close_done = None

    async def __aenter__(self) -> "AsyncGateway":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "idle" if self._batcher is None else (
            "draining" if self._closing else "running"
        )
        return (
            f"{type(self).__name__}({self._service!r}, {state}, "
            f"admitted={self._admitted}, coalesced={self._coalesced})"
        )
