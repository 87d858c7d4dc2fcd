"""Benchmark-side tracing: wrap each layer's public functions, from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps a
timing wrapper in for a module or class attribute and restores the
original on :meth:`Tracer.uninstall`.  Synchronous wrappers keep a
per-thread stack, so each call's *self time* -- its duration minus the
wrapped calls nested inside it -- is exact even when the gateway's
executor thread and the event loop thread run spans at once.  Coroutine
wrappers (``AsyncGateway.asolve`` / ``amutate``) record intervals instead,
because other tasks interleave with them and self time is not defined.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Self times and call counts per span name, plus recorded intervals."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: name -> [(start, end, detail)] for coroutine spans and the
        #: ``solve_many`` windows the gateway metrics are matched against.
        self.intervals: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, detail=None):
        """``fn`` wrapped as a synchronous span named ``name``.

        ``detail(args)``, when given, is stored with the call's interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                duration = end - start
                stack.pop()
                tracer.self_s[name] += duration - frame[0]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if detail is not None:
                    tracer.intervals[name].append((start, end, detail(args)))

        return traced

    def timed_async(self, name: str, fn, detail):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.intervals[name].append(
                    (start, time.perf_counter(), detail(args))
                )

        return traced

    # -- installation -------------------------------------------------
    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        if original is None:  # an optional dependency that is absent
            return
        # Restore the raw attribute (a descriptor, for class members).
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived quantities -------------------------------------------
    def total_self(self) -> float:
        return sum(self.self_s.values())


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (see the table in ``README.md``).

    Module-level names are patched in the module that *calls* them
    (``fastpath``'s bindings of ``steiner_tree_from_voronoi`` and scipy's
    ``dijkstra``, ``service``'s bindings of the pruning bounds,
    ``serving.server``'s bindings of the protocol codec), because that is
    the name the call site resolves at run time.
    """
    from repro.core import fastpath, service
    from repro.core.gateway import AsyncGateway
    from repro.core.service import ConnectorService
    from repro.core.sharded import ShardedConnectorService
    from repro.graphs.csr import CSRGraph
    from repro.serving import server

    engine = fastpath.CSRWienerSteinerEngine

    def sync(name, detail=None):
        return lambda fn: tracer.timed(name, fn, detail)

    def windows(args):  # ShardedConnectorService.solve_many(self, queries, ...)
        return [frozenset(query) for query in args[1]]

    def query_of(args):  # AsyncGateway.asolve(self, query, ...)
        return frozenset(args[1])

    plan = [
        (CSRGraph, "bfs_tree", sync("csr.root_bfs")),
        (engine, "candidates_for_root", sync("fastpath.reweight")),
        (fastpath, "_scipy_dijkstra", sync("fastpath.dijkstra")),
        (fastpath, "mehlhorn_steiner_csr", sync("fastpath.forest_crossing")),
        (fastpath, "steiner_tree_from_voronoi", sync("steiner.phase23")),
        (fastpath, "adjust_distances", sync("adjust.adjust")),
        (engine, "score_exact", sync("fastpath.score")),
        (engine, "score_proxy", sync("fastpath.score")),
        (engine, "score_sampled", sync("fastpath.score")),
        (service, "root_bound", sync("pruning.bound")),
        (service, "candidate_bound", sync("pruning.bound")),
        (engine, "host_distances", sync("pruning.bound")),
        (engine, "induced_edge_count", sync("pruning.bound")),
        (ConnectorService, "solve", sync("service")),
        (ShardedConnectorService, "solve_many", sync("sharded.solve_many", windows)),
        (ShardedConnectorService, "apply_delta",
         sync("sharded.apply_delta", lambda args: None)),
        (server, "encode_line", sync("protocol.codec")),
        (server, "decode_line", sync("protocol.codec")),
        (server, "result_to_payload", sync("protocol.codec")),
        (server, "options_from_payload", sync("protocol.codec")),
        (AsyncGateway, "asolve",
         lambda fn: tracer.timed_async("gateway.asolve", fn, query_of)),
        (AsyncGateway, "amutate",
         lambda fn: tracer.timed_async("gateway.amutate", fn, lambda args: None)),
    ]
    for owner, attr, factory in plan:
        tracer.patch(owner, attr, factory)


def gateway_wait_seconds(tracer: Tracer) -> list[float]:
    """Per ``asolve`` call: its duration minus the part of it that its
    window's ``solve_many`` covered.

    A request's window is the latest ``solve_many`` holding its query that
    ended inside the request's interval (a coalesced request may join a
    window that was already running, so only the overlap counts).
    """
    ends_by_query: dict[frozenset, list[tuple[float, float]]] = defaultdict(list)
    for start, end, queries in tracer.intervals["sharded.solve_many"]:
        for query in queries:
            ends_by_query[query].append((end, start))
    for spans in ends_by_query.values():
        spans.sort()
    waits = []
    for start, end, query in tracer.intervals["gateway.asolve"]:
        spans = ends_by_query.get(query, [])
        i = bisect.bisect_right(spans, (end, float("inf"))) - 1
        covered = 0.0
        if i >= 0 and spans[i][0] >= start:
            window_end, window_start = spans[i]
            covered = window_end - max(window_start, start)
        waits.append((end - start) - covered)
    return waits
