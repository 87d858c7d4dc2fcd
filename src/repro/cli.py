"""Command-line interface: ``repro <experiment>`` or ``python -m repro``.

Examples
--------
::

    repro list                          # show available experiments
    repro figure2                       # the Steiner-vs-Wiener gadget (instant)
    repro table2                        # approximation quality vs certified bounds
    repro query email 3 17 42           # run ws-q on a dataset with an ad-hoc query
    repro query email --batch q.txt     # serve a whole batch from one index
    repro query email --batch q.txt --shards 4   # ...sharded over 4 processes
    repro query email 3 17 42 --json    # machine-readable output
    repro serve email --port 8765       # persistent JSON-lines TCP server
    repro serve email --port 8765 --shards 4     # ...over 4 shard processes
    repro shard-host email --port 8766  # one shard replica, served over TCP
    repro serve email --shards 10.0.0.5:8766,10.0.0.6:8766   # remote shards
    repro serve email --shards 4 --replication 2   # replicated, self-healing
    repro ping 10.0.0.5:8766            # health-probe a shard-host daemon
    repro mutate email --edges delta.txt           # offline delta dry-run
    repro mutate email --edges delta.txt --port 8765   # mutate a live server
    repro trace synth t.jsonl email --requests 500     # synthesize a load trace
    repro trace record t.jsonl --target 127.0.0.1:8765 # record live traffic
    repro replay t.jsonl --target 127.0.0.1:8765 --slo slo.json  # fire + gate

Ad-hoc queries are served through
:class:`repro.core.service.ConnectorService`: the dataset is indexed once
and every query of the invocation (one positional query, a ``--batch``
file, or both) reuses the same CSR arrays and caches.  With ``--shards N``
the batch is routed across N persistent shard processes
(:class:`repro.core.sharded.ShardedConnectorService`) instead —
bit-identical answers, parallel solving.  ``--shards`` also accepts a
comma-separated list of shard specs (``host:port`` for a ``repro
shard-host`` daemon — possibly on another machine — or ``local`` for an
in-process worker), so one router can front a mixed ring.  Batch files
hold one whitespace-separated query per line, or a JSON list of vertex
lists.

``repro serve`` turns the same stack into a persistent daemon: an
:class:`~repro.core.gateway.AsyncGateway` micro-batches
concurrently-arriving requests into ``solve_many`` windows (coalescing
identical in-flight queries) behind the JSON-lines TCP protocol of
:mod:`repro.serving` — one request per line, one connector per line.
``repro shard-host`` runs the other side of the shard transport: one
service replica answering ``sweep`` requests for any router that passes
the graph-digest handshake (see :mod:`repro.serving.remote`).

``repro trace`` and ``repro replay`` are the scenario harness
(:mod:`repro.loadgen`): ``trace synth`` writes a deterministic JSONL
load trace (Zipf-skewed queries, Poisson arrivals with a burst
envelope), ``trace record`` captures live server traffic through a
transparent recording proxy, and ``replay`` fires a trace open-loop at a
running daemon, reporting latency percentiles, throughput, and
shed/coalesce rates — optionally gated by an ``--slo`` envelope (exit 1
on violation).  ``repro query --batch`` also accepts a trace file
directly: the offsets are ignored and the queries run as one batch.

With ``--replication R`` (R ≥ 2) each key range is served by R distinct
replicas on the ring: a dead shard degrades the deployment instead of
failing it (in-flight sweeps fail over to a surviving replica, the slot
heals with backoff), and ``--heartbeat-interval`` /
``--liveness-deadline`` tune how fast silence is noticed.  ``repro
ping`` is the matching supervisor primitive: a handshake-free liveness
probe of one shard-host daemon, reporting round-trip time and the
daemon's health counters (exit 0 alive, 1 unreachable).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Minimum Wiener Connector Problem' "
            "(SIGMOD 2015): run paper experiments or ad-hoc queries."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    for name, module in EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else name
        sub.add_parser(name, help=summary)

    query = sub.add_parser(
        "query", help="run a connector method on a dataset with query sets"
    )
    query.add_argument("dataset", help="stand-in dataset name (see `repro list`)")
    query.add_argument("vertices", nargs="*", type=int, help="query vertex ids")
    query.add_argument("--method", default="ws-q",
                       help="ws-q, st, ppr, cps or ctp (default ws-q)")
    query.add_argument("--batch", metavar="FILE",
                       help="file of additional queries: one whitespace-"
                            "separated query per line, or a JSON list of "
                            "vertex lists")
    query.add_argument("--json", action="store_true", dest="as_json",
                       help="emit one JSON document instead of text")
    query.add_argument("--beta", type=float, default=1.0,
                       help="λ-grid resolution of Algorithm 1 (default 1.0)")
    query.add_argument("--selection", default="auto",
                       choices=("a", "wiener", "auto", "sampled"),
                       help="candidate scoring policy (default auto)")
    query.add_argument("--no-prune", action="store_true",
                       help="disable certified λ×root sweep pruning "
                            "(ablation; the connector is bit-identical "
                            "either way, pruning is only faster)")
    query.add_argument("--shards", default="0", metavar="N|SPECS",
                       help="serve the batch through persistent shards: a "
                            "count N of local shard processes (default 0: "
                            "one in-process service), or a comma-separated "
                            "list of specs — host:port of a `repro "
                            "shard-host` daemon, or `local` (answers are "
                            "bit-identical either way)")
    _add_health_flags(query)

    serve = sub.add_parser(
        "serve",
        help="run a persistent JSON-lines TCP connector server on a dataset",
    )
    serve.add_argument("dataset", help="stand-in dataset name (see `repro list`)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 asks the OS for a free one "
                            "(default 8765)")
    serve.add_argument("--shards", default="0", metavar="N|SPECS",
                       help="back the gateway with persistent shards: a "
                            "count N of local shard processes (default 0: "
                            "one in-process service), or a comma-separated "
                            "list of specs — host:port of a `repro "
                            "shard-host` daemon, or `local`")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="most requests per gateway window (default 32)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="longest a request waits for a busy solver "
                            "before its window is staged; an idle solver "
                            "dispatches at once (default 2.0 ms)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission-queue bound; arrivals beyond it "
                            "backpressure (default 1024)")
    _add_health_flags(serve)

    shard_host = sub.add_parser(
        "shard-host",
        help="run one shard replica as a TCP daemon for remote routers",
    )
    shard_host.add_argument("dataset",
                            help="stand-in dataset name (see `repro list`)")
    shard_host.add_argument("--host", default="127.0.0.1",
                            help="bind address (default 127.0.0.1)")
    shard_host.add_argument("--port", type=int, default=8766,
                            help="TCP port; 0 asks the OS for a free one "
                                 "(default 8766)")

    mutate = sub.add_parser(
        "mutate",
        help="apply an edge delta to a dataset index or a running server",
    )
    mutate.add_argument("dataset",
                        help="stand-in dataset name (see `repro list`)")
    mutate.add_argument("--edges", metavar="FILE", required=True,
                        help="delta file, one op per line: `+ u v` insert, "
                             "`- u v` delete, `= u v w` reweight; a bare "
                             "`u v` inserts; `#` starts a comment")
    mutate.add_argument("--host", default="127.0.0.1",
                        help="server address for --port (default 127.0.0.1)")
    mutate.add_argument("--port", type=int, default=0,
                        help="send the delta to a running `repro serve` "
                             "daemon on this port instead of applying "
                             "offline (default 0: offline dry-run)")
    mutate.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one JSON document instead of text")

    trace = sub.add_parser(
        "trace", help="synthesize or record JSONL load traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command")

    synth = trace_sub.add_parser(
        "synth",
        help="deterministically synthesize a trace from a dataset's "
             "component-aware query pool",
    )
    synth.add_argument("out", help="trace file to write (JSONL)")
    synth.add_argument("dataset",
                       help="stand-in dataset name (see `repro list`)")
    synth.add_argument("--requests", type=int, default=200,
                       help="number of request records (default 200)")
    synth.add_argument("--query-size", type=int, default=5,
                       help="vertices per query (default 5)")
    synth.add_argument("--pool-size", type=int, default=16,
                       help="distinct queries in the popularity pool, "
                            "hottest first (default 16)")
    synth.add_argument("--mean-gap-ms", type=float, default=50.0,
                       help="mean arrival gap in ms (default 50.0)")
    synth.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf popularity exponent over the pool; 0 is "
                            "uniform (default 1.1)")
    synth.add_argument("--burst-amplitude", type=float, default=0.0,
                       help="relative amplitude of the sinusoidal rate "
                            "envelope, in [0, 1) (default 0: constant rate)")
    synth.add_argument("--burst-period-s", type=float, default=60.0,
                       help="period of the burst envelope in seconds "
                            "(default 60)")
    synth.add_argument("--seed", type=int, default=0,
                       help="RNG seed; equal knobs give byte-equal traces "
                            "(default 0)")

    record = trace_sub.add_parser(
        "record",
        help="record live solve traffic through a transparent proxy",
    )
    record.add_argument("out", help="trace file to write (JSONL)")
    record.add_argument("--target", required=True, metavar="HOST:PORT",
                        help="address of the live `repro serve` daemon")
    record.add_argument("--host", default="127.0.0.1",
                        help="proxy bind address (default 127.0.0.1)")
    record.add_argument("--port", type=int, default=0,
                        help="proxy TCP port; 0 asks the OS for a free one "
                             "(default 0)")
    record.add_argument("--duration", type=float, default=0.0,
                        metavar="SECONDS",
                        help="stop recording after this long (default 0: "
                             "record until Ctrl-C)")

    replay = sub.add_parser(
        "replay",
        help="fire a trace open-loop at a live server and report/gate",
    )
    replay.add_argument("trace", help="trace file to replay (JSONL)")
    replay.add_argument("--target", required=True, metavar="HOST:PORT",
                        help="address of the live `repro serve` daemon")
    replay.add_argument("--speed", type=float, default=1.0,
                        help="time-scale the arrival schedule; 2.0 fires "
                             "twice as fast (default 1.0)")
    replay.add_argument("--slo", metavar="FILE",
                        help="JSON SLO envelope to gate on; any violated "
                             "bound exits 1")
    replay.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one JSON document instead of text")

    ping = sub.add_parser(
        "ping",
        help="health-probe a `repro shard-host` daemon (rtt + counters)",
    )
    ping.add_argument("address", metavar="HOST:PORT",
                      help="address of the shard-host daemon to probe")
    ping.add_argument("--json", action="store_true", dest="as_json",
                      help="emit one JSON document instead of text")
    ping.add_argument("--timeout", type=float, default=5.0,
                      help="seconds to wait for the pong (default 5.0); a "
                           "hung daemon counts as unreachable")

    lint = sub.add_parser(
        "lint",
        help="run the project's AST invariant checker (repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro, falling "
             "back to the current directory)",
    )
    lint.add_argument(
        "--select", metavar="IDS",
        help="comma-separated rule ids to run (e.g. RPR001,RPR003); "
             "default runs every registered rule",
    )
    lint.add_argument(
        "--ignore", metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable report (stable ordering) "
             "instead of text",
    )
    lint.add_argument(
        "--explain", metavar="RPR00x",
        help="print a rule's rationale and its minimal bad/good fixture "
             "pair, then exit",
    )
    return parser


def _add_health_flags(command: argparse.ArgumentParser) -> None:
    """The replicated-ring knobs shared by ``query`` and ``serve``."""
    command.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="distinct replicas per key range on the shard ring (default "
             "1: a dead shard fails the batch; R >= 2: it fails over to a "
             "surviving replica and heals with backoff). Needs --shards "
             "with at least R slots",
    )
    command.add_argument(
        "--heartbeat-interval", type=float, default=15.0, metavar="SECONDS",
        help="ping idle remote shard links this often, marking silent "
             "replicas suspect before a batch touches them (default 15.0; "
             "0 disables idle heartbeats)",
    )
    command.add_argument(
        "--liveness-deadline", type=float, default=30.0, metavar="SECONDS",
        help="mid-batch silence from a busy shard tolerated before it is "
             "probed and, if unreachable, declared dead (default 30.0; 0 "
             "waits forever, bounded only by ~60s TCP keepalive)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        from repro.datasets import dataset_names

        print("experiments:")
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()
            print(f"  {name:10s} {doc[0] if doc else ''}")
        print("\ndatasets (synthetic stand-ins):")
        print("  " + ", ".join(dataset_names()))
        return 0
    if args.command == "query":
        return _run_query(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "shard-host":
        return _run_shard_host(args)
    if args.command == "mutate":
        return _run_mutate(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "ping":
        return _run_ping(args)
    if args.command == "lint":
        return _run_lint(args)
    EXPERIMENTS[args.command].main()
    return 0


def _parse_shards(value: str):
    """Parse ``--shards``: a local count or a comma-separated spec list.

    Returns ``("count", n)`` for a plain integer or ``("specs", [...])``
    for a list of ``host:port`` / ``local`` entries (validated through
    :func:`repro.core.sharded.normalize_shard_spec`, the same rules the
    service itself enforces).  Raises ``ValueError`` with a message fit
    for direct stderr printing.
    """
    text = value.strip()
    try:
        count = int(text)
    except ValueError:
        pass
    else:
        if count < 0:
            raise ValueError(f"--shards must be non-negative, got {count}")
        return "count", count
    from repro.core.sharded import normalize_shard_spec

    specs = [part.strip() for part in text.split(",") if part.strip()]
    if not specs:
        raise ValueError(
            f"--shards must be a count or a comma-separated spec list, "
            f"got {value!r}"
        )
    for spec in specs:
        normalize_shard_spec(spec)  # raises on a malformed entry
    return "specs", specs


def _check_replication(args: argparse.Namespace, shards) -> None:
    """Fail a bad ``--replication`` before any dataset loads or shard spawns."""
    kind, value = shards
    slots = value if kind == "count" else len(value)
    if args.replication < 1:
        raise ValueError(
            f"--replication must be at least 1, got {args.replication}"
        )
    if args.replication > 1 and slots == 0:
        raise ValueError(
            f"--replication {args.replication} needs a shard ring; pass "
            f"--shards with at least {args.replication} slots"
        )
    if args.replication > slots > 0:
        raise ValueError(
            f"--replication {args.replication} needs at least that many "
            f"shard slots, got {slots}"
        )


def _health_kwargs(args: argparse.Namespace) -> dict:
    """The replicated-ring knobs of `_add_health_flags`, service-shaped.

    Zero means "off" on the CLI (argparse has no None literal); the
    service spells that ``None``.
    """
    return {
        "replication": args.replication,
        "heartbeat_interval": (
            args.heartbeat_interval if args.heartbeat_interval > 0 else None
        ),
        "liveness_deadline": (
            args.liveness_deadline if args.liveness_deadline > 0 else None
        ),
    }


def _make_batch_service(graph, options, shards, health: dict | None = None):
    """The serving backend of one CLI invocation (shared query/serve path)."""
    kind, value = shards
    if kind == "count" and value == 0:
        from repro.core.service import ConnectorService

        return ConnectorService(graph, options)
    from repro.core.sharded import ShardedConnectorService

    kwargs = dict(health or {})
    if kind == "count":
        return ShardedConnectorService(graph, options, n_shards=value, **kwargs)
    return ShardedConnectorService(graph, options, shards=value, **kwargs)


def _canonical_sort(values):
    """Canonical label order (shared with the serving wire format)."""
    from repro.serving.protocol import canonical_sort

    return canonical_sort(values)


def _read_batch(path: str) -> list[list[int]]:
    """Parse a batch file: JSON list-of-lists, one query per line, or a
    JSONL load trace (arrival offsets ignored; the queries run as one
    batch)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    first_line = stripped.splitlines()[0] if stripped else ""
    if first_line.startswith("{"):
        try:
            head = json.loads(first_line)
        except json.JSONDecodeError:
            head = None
        if isinstance(head, dict) and head.get("kind") == "header":
            from repro.loadgen.trace import Trace

            trace = Trace.loads(text)
            return [[int(v) for v in record.query] for record in trace.records]
    if stripped.startswith(("[", "{")):
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload.get("queries", [])
        if payload and all(isinstance(entry, (int, str)) for entry in payload):
            payload = [payload]  # a flat list is one query, not a list of them
        queries = [[int(v) for v in entry] for entry in payload]
    else:
        queries = [
            [int(token) for token in line.split()]
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
    return [q for q in queries if q]


def _run_query(args: argparse.Namespace) -> int:
    from repro.baselines import METHODS
    from repro.core.options import SolveOptions
    from repro.datasets import load_dataset

    if args.method not in METHODS:
        print(f"unknown method {args.method!r}; choose from {sorted(METHODS)}",
              file=sys.stderr)
        return 2

    queries: list[list[int]] = []
    if args.vertices:
        queries.append(args.vertices)
    if args.batch:
        try:
            queries.extend(_read_batch(args.batch))
        except (OSError, TypeError, ValueError) as exc:
            print(f"cannot read batch file {args.batch!r}: {exc}",
                  file=sys.stderr)
            return 2
    if not queries and not args.batch:
        print("no queries: pass vertex ids and/or --batch FILE",
              file=sys.stderr)
        return 2
    # An explicitly provided --batch file with nothing in it is an empty
    # workload, not a usage error: the invocation proceeds (validating the
    # dataset and shard topology as usual) and reports zero queries.

    try:
        shards = _parse_shards(args.shards)
        _check_replication(args, shards)
    except ValueError as exc:
        # Pure-string validation, so a malformed --shards fails before the
        # dataset is loaded and indexed (same order as `repro serve`).
        print(exc, file=sys.stderr)
        return 2

    graph = load_dataset(args.dataset)
    missing = _canonical_sort(
        {v for query in queries for v in query if not graph.has_node(v)}
    )
    if missing:
        known = _canonical_sort(graph.nodes())
        print(
            f"vertices not in graph: {missing} (dataset {args.dataset!r} has "
            f"{len(known)} vertices: {known[0]!r} .. {known[-1]!r})",
            file=sys.stderr,
        )
        return 2

    options = SolveOptions(
        method=args.method,
        beta=args.beta,
        selection=args.selection,
        prune=not args.no_prune,
    )
    wants_footer = bool(args.batch) and not args.as_json
    try:
        service = _make_batch_service(
            graph, options, shards, _health_kwargs(args)
        )
    except (RuntimeError, OSError) as exc:
        # A refused handshake or an unreachable shard host is a topology
        # problem the operator must fix, not a traceback.
        print(f"cannot build the shard topology: {exc}", file=sys.stderr)
        return 2
    with service:
        started = time.perf_counter()
        results = service.solve_many(queries)
        elapsed = time.perf_counter() - started
        # Only the footer reads the stats, and a sharded stats() is a
        # scatter/gather over every shard link — skip the dead IPC.
        stats = service.stats() if wants_footer and queries else None

    if args.as_json:
        from repro.serving.protocol import result_to_payload

        # One connector-document shape for both surfaces: this is the
        # same payload the TCP server sends per request.
        document = {
            "dataset": args.dataset,
            "method": args.method,
            "results": [result_to_payload(result) for result in results],
        }
        print(json.dumps(document, indent=2))
        return 0

    for query, result in zip(queries, results):
        if len(results) > 1:
            print(f"query {_canonical_sort(set(query))}:")
        print(result.summary())
        print(f"added vertices: {_canonical_sort(result.added_nodes)}")
    if wants_footer:
        if not queries:
            # The empty-workload footer: no timing averages over nothing.
            print("batch: 0 queries")
            return 0
        # Batch mode used to drop its timing on the floor; surface the
        # serving picture the JSON path always had.  "Served warm" folds
        # the sharded router's in-flight dedup into the cache hits so the
        # number is comparable across --shards 0 and --shards N (the
        # router answers intra-batch duplicates before any shard cache
        # sees them).
        warm = stats.result_hits + getattr(stats, "inflight_deduped", 0)
        print(
            f"batch: {len(queries)} queries in {elapsed:.2f}s "
            f"({elapsed / len(queries) * 1e3:.1f} ms/query, "
            f"{warm} served warm, {warm / len(queries):.0%} of batch)"
        )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.gateway import AsyncGateway
    from repro.datasets import load_dataset
    from repro.serving.server import GatewayServer

    try:
        shards = _parse_shards(args.shards)
        _check_replication(args, shards)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"--port must be in 0..65535, got {args.port}",
              file=sys.stderr)
        return 2
    gateway_tunables = dict(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
    )
    try:
        # Probe-construct to validate the tunables: the constructor never
        # touches the service, and letting it own the rules keeps the CLI
        # from duplicating (and drifting from) the gateway's validation —
        # while still failing before a dataset loads or shards spawn.
        AsyncGateway(None, **gateway_tunables)
    except ValueError as exc:
        print(f"invalid serving option: {exc}", file=sys.stderr)
        return 2

    graph = load_dataset(args.dataset)
    try:
        service = _make_batch_service(graph, None, shards, _health_kwargs(args))
    except (RuntimeError, OSError) as exc:
        print(f"cannot build the shard topology: {exc}", file=sys.stderr)
        return 2

    async def run() -> int:
        with service:
            gateway = AsyncGateway(service, **gateway_tunables)
            try:
                try:
                    server = await GatewayServer(
                        gateway, args.host, args.port
                    ).start()
                except OSError as exc:
                    # Bind failures (port in use, unresolvable --host) are
                    # user errors, not tracebacks.  Scoped to the bind: an
                    # OSError later in the serving lifetime (say a broken
                    # stdout pipe) must not masquerade as one.
                    print(f"cannot bind {args.host}:{args.port}: {exc}",
                          file=sys.stderr)
                    return 2
                try:
                    kind, value = shards
                    if kind == "specs":
                        backing = f"shards [{', '.join(value)}]"
                    elif value:
                        backing = f"{value} shard processes"
                    else:
                        backing = "one in-process service"
                    print(
                        f"serving {args.dataset!r} ({graph.num_nodes} vertices, "
                        f"{graph.num_edges} edges) over {backing}",
                        flush=True,
                    )
                    # The tests (and any supervisor) parse this line for
                    # the bound port, so its shape is part of the CLI API.
                    print(f"listening on {server.host}:{server.port}", flush=True)
                    bound_ports = {address[1] for address in server.addresses}
                    if len(bound_ports) > 1:
                        # A dual-stack host name with --port 0 gets a
                        # different ephemeral port per address family; the
                        # parseable line above can only announce one.
                        print(
                            f"warning: {args.host!r} bound multiple address "
                            f"families on different ports {sorted(bound_ports)}; "
                            "bind a single-family address (e.g. 127.0.0.1) "
                            "when using --port 0",
                            file=sys.stderr,
                            flush=True,
                        )
                    await server.wait_shutdown()
                    print("shutdown requested; draining", flush=True)
                finally:
                    await server.aclose()
            finally:
                await gateway.aclose()
        stats = gateway.stats()
        print(
            f"served {stats.results_served} results in "
            f"{stats.windows_dispatched} windows "
            f"({stats.coalesced} coalesced, {stats.shed} shed)",
            flush=True,
        )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _read_delta(path: str):
    """Parse a delta file into a :class:`~repro.core.versioned.GraphDelta`.

    One op per line: ``+ u v`` inserts, ``- u v`` deletes, ``= u v w``
    reweights; a bare ``u v`` is an insert.  ``#`` starts a comment.
    The GraphDelta constructor then enforces the batch rules (no
    duplicate edge across ops, no self-loops, non-empty).
    """
    from repro.core.versioned import GraphDelta

    inserts, deletes, reweights = [], [], []
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            op = "+"
            if tokens[0] in ("+", "-", "="):
                op, tokens = tokens[0], tokens[1:]
            try:
                if op == "=" and len(tokens) == 3:
                    reweights.append(
                        (int(tokens[0]), int(tokens[1]), float(tokens[2]))
                    )
                elif op in ("+", "-") and len(tokens) == 2:
                    target = inserts if op == "+" else deletes
                    target.append((int(tokens[0]), int(tokens[1])))
                else:
                    raise ValueError("wrong arity")
            except ValueError:
                raise ValueError(
                    f"line {number}: expected `+ u v`, `- u v` or "
                    f"`= u v w`, got {raw.strip()!r}"
                ) from None
    return GraphDelta(
        inserts=tuple(inserts),
        deletes=tuple(deletes),
        reweights=tuple(reweights),
    )


def _run_mutate(args: argparse.Namespace) -> int:
    """``repro mutate`` — the operator's edge-delta primitive.

    Offline (no ``--port``): loads the dataset, applies the delta to a
    fresh index, and reports the new epoch/digest — a dry-run that
    answers "does this delta apply, and what version does it produce?"
    before it is shipped anywhere.  With ``--port``, sends the delta to
    a running ``repro serve`` daemon as the pure-JSON ``mutate`` op, so
    the live gateway (and its whole shard ring) flips to the new epoch.
    Exit 0: applied.  Exit 1: refused (inapplicable delta, unreachable
    server).  Exit 2: usage (unreadable/malformed delta file).
    """
    from repro.errors import DeltaError

    try:
        delta = _read_delta(args.edges)
    except (OSError, ValueError, DeltaError) as exc:
        print(f"cannot read delta file {args.edges!r}: {exc}", file=sys.stderr)
        return 2

    if args.port:
        import asyncio

        from repro.serving.server import AsyncConnectorClient, ServerError

        async def run() -> int:
            client = await AsyncConnectorClient.connect(args.host, args.port)
            try:
                return await client.mutate(delta)
            finally:
                await client.aclose()

        try:
            epoch = asyncio.run(run())
        except (ServerError, ConnectionError, OSError) as exc:
            print(f"mutate against {args.host}:{args.port} failed: {exc}",
                  file=sys.stderr)
            return 1
        if args.as_json:
            print(json.dumps({
                "ok": True,
                "address": f"{args.host}:{args.port}",
                "epoch": epoch,
                "ops": delta.num_ops,
            }))
        else:
            print(f"server {args.host}:{args.port} advanced to epoch {epoch} "
                  f"({delta.num_ops} ops)")
        return 0

    from repro.core.service import ConnectorService
    from repro.datasets import load_dataset

    graph = load_dataset(args.dataset)
    service = ConnectorService(graph)
    try:
        epoch = service.apply_delta(delta)
    except DeltaError as exc:
        print(f"delta does not apply to {args.dataset!r}: {exc}",
              file=sys.stderr)
        return 1
    digest = service.index_digest()
    if args.as_json:
        print(json.dumps({
            "ok": True,
            "dataset": args.dataset,
            "epoch": epoch,
            "ops": delta.num_ops,
            "digest": digest,
            "nodes": service.num_nodes,
        }))
    else:
        print(f"{args.dataset!r} at epoch {epoch} after {delta.num_ops} ops "
              f"(digest {digest[:12]}, {service.num_nodes} vertices)")
    return 0


def _parse_address(value: str) -> tuple[str, int]:
    """Parse ``HOST:PORT``; raises ``ValueError`` fit for stderr."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"port must be an integer, got {port_text!r}"
        ) from None
    if not 0 < port <= 65535:
        raise ValueError(f"port must be in 1..65535, got {port}")
    return host, port


def _run_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "synth":
        return _run_trace_synth(args)
    if args.trace_command == "record":
        return _run_trace_record(args)
    print("usage: repro trace {synth,record} ...", file=sys.stderr)
    return 2


def _run_trace_synth(args: argparse.Namespace) -> int:
    """``repro trace synth`` — a deterministic load trace from knobs.

    The query pool is drawn component-aware
    (:func:`repro.workloads.component_query`), hottest-first, so every
    replayed query is solvable even on datasets with stragglers.  Equal
    knobs (including ``--seed``) give byte-equal trace files.
    """
    import random

    from repro.datasets import load_dataset
    from repro.errors import InvalidQueryError
    from repro.loadgen.trace import synthesize
    from repro.workloads import component_query

    if args.pool_size < 1:
        print(f"--pool-size must be at least 1, got {args.pool_size}",
              file=sys.stderr)
        return 2
    graph = load_dataset(args.dataset)
    rng = random.Random(args.seed)
    pool: list[tuple[int, ...]] = []
    seen: set[frozenset] = set()
    # Distinct queries only: a duplicate pool entry would silently skew
    # the popularity curve.  Small components cap how many distinct
    # queries exist, so give up after a bounded number of redraws.
    attempts = 0
    try:
        while len(pool) < args.pool_size and attempts < 20 * args.pool_size:
            attempts += 1
            query = tuple(component_query(graph, args.query_size, rng))
            key = frozenset(query)
            if key not in seen:
                seen.add(key)
                pool.append(query)
    except InvalidQueryError as exc:
        print(f"cannot build a query pool on {args.dataset!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        trace = synthesize(
            pool,
            args.requests,
            mean_gap_ms=args.mean_gap_ms,
            zipf=args.zipf,
            burst_amplitude=args.burst_amplitude,
            burst_period_s=args.burst_period_s,
            seed=args.seed,
            meta={"dataset": args.dataset, "query_size": args.query_size},
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        trace.save(args.out)
    except OSError as exc:
        print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {len(trace)} requests over {trace.duration:.2f}s "
        f"({len(pool)} distinct queries) to {args.out}"
    )
    return 0


def _run_trace_record(args: argparse.Namespace) -> int:
    """``repro trace record`` — capture live traffic as a trace.

    Starts a transparent proxy in front of ``--target``; point clients at
    the proxy's address (printed as the usual parseable ``listening on``
    line) and their solve requests are recorded with arrival offsets
    while being served normally.
    """
    import asyncio

    from repro.loadgen.trace import RecordingProxy

    try:
        target_host, target_port = _parse_address(args.target)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"--port must be in 0..65535, got {args.port}", file=sys.stderr)
        return 2
    if args.duration < 0:
        print(f"--duration must be non-negative, got {args.duration}",
              file=sys.stderr)
        return 2

    async def run() -> int:
        proxy = RecordingProxy(target_host, target_port, args.host, args.port)
        try:
            await proxy.start()
        except OSError as exc:
            print(f"cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        bound_port = proxy.port
        try:
            print(f"recording traffic for {target_host}:{target_port}",
                  flush=True)
            # Same parseable shape as `repro serve`: clients (and tests)
            # read the proxy's bound port from this line.
            print(f"listening on {proxy.host}:{bound_port}", flush=True)
            if args.duration:
                await asyncio.sleep(args.duration)
            else:  # pragma: no cover - interactive record until Ctrl-C
                await asyncio.Event().wait()
        finally:
            await proxy.aclose()
        trace = proxy.to_trace(meta={"bind": f"{args.host}:{bound_port}"})
        trace.save(args.out)
        print(f"wrote {len(trace)} requests over {trace.duration:.2f}s "
              f"to {args.out}", flush=True)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _run_replay(args: argparse.Namespace) -> int:
    """``repro replay`` — fire a trace at a live daemon, report, gate.

    Exit 0: replay finished (and the SLO, if given, held).  Exit 1: the
    server was unreachable or an ``--slo`` bound was violated.  Exit 2:
    usage (unreadable trace/SLO file, bad address).
    """
    import asyncio

    from repro.errors import TraceError
    from repro.loadgen.replay import replay_trace
    from repro.loadgen.slo import SLO
    from repro.loadgen.trace import Trace

    try:
        target_host, target_port = _parse_address(args.target)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.speed <= 0:
        print(f"--speed must be positive, got {args.speed}", file=sys.stderr)
        return 2
    try:
        trace = Trace.load(args.trace)
    except (OSError, TraceError) as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    slo = None
    if args.slo:
        try:
            slo = SLO.from_file(args.slo)
        except (OSError, ValueError) as exc:
            print(f"cannot read SLO file {args.slo!r}: {exc}", file=sys.stderr)
            return 2

    try:
        report = asyncio.run(
            replay_trace(trace, target_host, target_port, speed=args.speed)
        )
    except (ConnectionError, OSError) as exc:
        print(f"cannot replay against {target_host}:{target_port}: {exc}",
              file=sys.stderr)
        return 1

    verdict = slo.evaluate(report) if slo is not None else None
    if args.as_json:
        document = {
            "trace": args.trace,
            "target": f"{target_host}:{target_port}",
            "speed": args.speed,
            "report": report.summary(),
        }
        if verdict is not None:
            document["slo"] = verdict.to_payload()
        print(json.dumps(document, indent=2))
    else:
        summary = report.summary()
        print(
            f"replayed {summary['requests']} requests in "
            f"{summary['duration_s']:.2f}s "
            f"({summary['throughput_rps']:.1f} req/s, "
            f"{summary['errors']} errors)"
        )
        print(
            f"latency p50/p95/p99: {summary['p50_ms']:.1f}/"
            f"{summary['p95_ms']:.1f}/{summary['p99_ms']:.1f} ms; "
            f"shed {summary['shed']} ({summary['shed_rate']:.1%}), "
            f"coalesced {summary['coalesced']} "
            f"({summary['coalesce_rate']:.1%})"
        )
        if verdict is not None:
            print(verdict.describe())
    if verdict is not None and not verdict.ok:
        return 1
    return 0


def _run_ping(args: argparse.Namespace) -> int:
    """``repro ping HOST:PORT`` — the supervisor's liveness primitive.

    Handshake-free (no graph needed on this side), so any process can
    probe any shard-host daemon.  Exit 0: the daemon ponged (round-trip
    time and its health counters are reported).  Exit 1: unreachable,
    hung past ``--timeout``, or not a shard host.  Exit 2: usage.
    """
    from repro.core.sharded import ShardTransportError, normalize_shard_spec
    from repro.serving.remote import ping_shard_host

    try:
        spec = normalize_shard_spec(args.address)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if spec == "local":
        print("ping probes a daemon: pass HOST:PORT, not 'local'",
              file=sys.stderr)
        return 2
    if args.timeout <= 0:
        print(f"--timeout must be positive, got {args.timeout}",
              file=sys.stderr)
        return 2
    host, port = spec
    try:
        report = ping_shard_host(
            host, port, timeout=args.timeout, with_stats=True
        )
    except ShardTransportError as exc:
        if args.as_json:
            print(json.dumps(
                {"ok": False, "address": f"{host}:{port}", "error": str(exc)}
            ))
        else:
            print(exc, file=sys.stderr)
        return 1
    if args.as_json:
        document = {"ok": True, "address": f"{host}:{port}", **report}
        print(json.dumps(document, indent=2))
        return 0
    print(f"shard host {host}:{port}: pong in "
          f"{report['rtt_seconds'] * 1e3:.2f} ms")
    daemon = report.get("host")
    if daemon:
        print(
            f"up {daemon['uptime_seconds']:.1f}s, "
            f"{daemon['sweeps_served']} sweeps served, "
            f"{daemon['connections_active']} connections active"
        )
    return 0


def _run_shard_host(args: argparse.Namespace) -> int:
    from repro.core.service import ConnectorService
    from repro.datasets import load_dataset
    from repro.serving.remote import ShardHostServer

    if not 0 <= args.port <= 65535:
        print(f"--port must be in 0..65535, got {args.port}",
              file=sys.stderr)
        return 2

    graph = load_dataset(args.dataset)
    service = ConnectorService(graph)
    server = ShardHostServer(service, args.host, args.port)
    try:
        server.start()
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    try:
        print(
            f"shard host for {args.dataset!r} ({graph.num_nodes} vertices, "
            f"{graph.num_edges} edges, digest {service.index_digest()[:12]})",
            flush=True,
        )
        # Same parseable shape as `repro serve`: supervisors and tests
        # read the bound port from this line.
        print(f"listening on {server.host}:{server.port}", flush=True)
        server.wait_shutdown()
        print("shutdown requested; stopping", flush=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.close()
    print(f"served {server.sweeps_served} sweeps", flush=True)
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the AST invariant checker as a CI-gateable verb.

    Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule id or
    nonexistent path) — the convention CI's lint-gate job keys on.
    """
    from pathlib import Path

    from repro.analysis import (
        default_registry,
        lint_paths,
        render_explain,
        render_json,
        render_text,
    )

    registry = default_registry()

    if args.explain:
        rule_id = args.explain.strip().upper()
        try:
            rule = registry.get(rule_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}; known rules: "
                  f"{', '.join(registry.ids())}")
            return 2
        fixtures = Path(__file__).parent / "analysis" / "fixtures"
        stem = rule_id.lower()
        bad = fixtures / f"{stem}_bad.py"
        good = fixtures / f"{stem}_good.py"
        try:
            print(render_explain(
                rule.id,
                rule.description,
                rule.rationale or "(no recorded rationale)",
                bad.read_text(encoding="utf-8") if bad.is_file() else None,
                good.read_text(encoding="utf-8") if good.is_file() else None,
            ))
        except BrokenPipeError:  # the reader (a pager, head) hung up
            pass
        return 0

    def split_ids(raw: str | None) -> list[str] | None:
        if not raw:
            return None
        return [part.strip().upper() for part in raw.split(",") if part.strip()]

    paths = list(args.paths)
    if not paths:
        default = Path("src/repro")
        paths = [str(default)] if default.is_dir() else ["."]
    for path in paths:
        if not Path(path).exists():
            print(f"error: no such path: {path}")
            return 2

    try:
        result = lint_paths(
            paths,
            registry,
            select=split_ids(args.select),
            ignore=split_ids(args.ignore),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}; known rules: {', '.join(registry.ids())}")
        return 2

    try:
        print(render_json(result) if args.as_json else render_text(result))
    except BrokenPipeError:  # the reader (a pager, head) hung up
        pass
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
