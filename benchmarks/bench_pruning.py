"""Certified pruning + λ work sharing vs the historical per-pair sweep.

Measures what PR 8's tentpole is *for*: the λ×root sweep of
:meth:`~repro.core.service.ConnectorService._solve_ws` with (a) one
batched reweighting pass per root serving the whole λ grid and (b)
certified landmark-bound pruning of ``(root, λ)`` pairs — against the
historical baseline that built one candidate per pair and scored all of
them.  Three paths over one instance (the 10k-node / 50k-edge
reference) and one mixed workload:

* **unshared** — the pre-PR sweep, emulated pair by pair through
  one-λ ``candidates_for_root`` calls (result-memoized, as the
  historical service was);
* **shared** — the service with ``prune=False``: work sharing only;
* **pruned** — the service at defaults: work sharing + certified
  pruning.

The workload mixes the standard Zipf request stream with *root-ablation*
queries (explicit ``roots`` lists extending the Lemma-5 default with
distant vertices — the robustness-ablation pattern of the experiment
harness).  Ablation roots are where root-level pruning demonstrably
fires: a distant root's certified floor exceeds the incumbent at its
first encounter and its whole λ batch is never built.  On the default
Lemma-5 workload the λ sharing and candidate-level score pruning carry
the win.

Everything is gated on **bit-identity**: pruned and unpruned paths must
return the same winning ``(nodes, root, λ)`` on every request, the
pruned service must agree with the dict reference oracle, warm re-serves must
equal cold ones, and all of it must survive a mutation epoch
(``apply_delta`` + spot checks against one-shot ``wiener_steiner`` on
the mutated graph).  The prune counters must exactly partition the
sweep's pair count.  The full run additionally requires the
pruned+shared path to beat the unshared baseline on ms/query and writes
``BENCH_pruning.json``.

Usage::

    python benchmarks/bench_pruning.py           # reference instance, writes BENCH_pruning.json
    python benchmarks/bench_pruning.py --smoke   # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import random
import sys
import time

if __package__ in (None, ""):
    _HERE = pathlib.Path(__file__).resolve().parent
    _SRC = _HERE.parent / "src"
    for path in (_SRC, _HERE):
        if path.is_dir() and str(path) not in sys.path:
            sys.path.insert(0, str(path))

from bench_backend import build_instance
from bench_mutation import make_delta
from bench_serving import make_workload
from bench_sharded import identical

from repro.core.options import SolveOptions
from repro.core.reference import reference_wiener_steiner
from repro.core.service import ConnectorService, _lambda_grid, _root_list
from repro.core.wiener_steiner import wiener_steiner


def winner(result_or_tuple):
    """The certified-identical part of an answer: ``(nodes, root, λ)``.

    Pruned and unpruned sweeps agree on the winner by construction; the
    ``candidates`` trace may legitimately shrink under pruning (pruned
    roots never materialize their candidate sets), so cross-prune-setting
    comparisons pin the winner while same-setting comparisons use the
    full ``identical()`` contract.
    """
    if isinstance(result_or_tuple, tuple):
        return result_or_tuple
    return (
        result_or_tuple.nodes,
        result_or_tuple.metadata["root"],
        result_or_tuple.metadata["lambda"],
    )


def unshared_sweep(service, options, query, memo):
    """The historical sweep: one candidate construction per (root, λ) pair.

    Same grid, same canonical order, same strict-improvement selection,
    same result memo the old service had — but every pair pays its own
    reweighting pass through a one-λ ``candidates_for_root`` call, and
    nothing is ever pruned.  This is the baseline the tentpole
    replaced, kept runnable here so the comparison stays honest.
    """
    query_set = frozenset(query)
    memo_key = (query_set, options)
    if memo_key in memo:
        return memo[memo_key]
    engine = service._engine()
    roots = _root_list(options, query_set)
    for root in roots:
        engine.unreachable_queries(root, query_set)
    grid = (
        list(options.lambda_values)
        if options.lambda_values is not None
        else _lambda_grid(service.num_nodes, options.beta)
    )
    best_key = math.inf
    best = None
    scored: dict = {}
    for lam in grid:
        for root in roots:
            [candidate] = engine.candidates_for_root(
                root, [lam], query_set, options.adjust
            )
            if candidate in scored:
                continue
            key = service._score_candidate(engine, candidate, root, options)
            scored[candidate] = key
            if key < best_key:
                best_key = key
                best = (candidate, root, lam)
    memo[memo_key] = best
    return best


def make_requests(graph, args, rng):
    """The mixed workload: Zipf default queries + root-ablation queries.

    Returns ``[(query, options_override_or_None), ...]``; ablation
    entries carry an explicit roots tuple extending the query with
    ``--extra-roots`` random vertices.
    """
    stream = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    requests = [(query, None) for query in stream]
    nodes = sorted(graph.nodes())
    distinct = []
    seen = set()
    for query in stream:
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            distinct.append(query)
    for query in distinct[: args.ablation]:
        roots = tuple(
            dict.fromkeys(list(query) + rng.sample(nodes, args.extra_roots))
        )
        requests.append((query, roots))
    return requests


def serve(service, options, requests):
    """Serve the mixed stream through a service; (winners, seconds)."""
    winners = []
    started = time.perf_counter()
    for query, roots in requests:
        opts = options if roots is None else options.replace(roots=roots)
        winners.append(winner(service.solve(query, opts)))
    return winners, time.perf_counter() - started


def serve_unshared(service, options, requests):
    winners = []
    memo: dict = {}
    started = time.perf_counter()
    for query, roots in requests:
        opts = options if roots is None else options.replace(roots=roots)
        winners.append(winner(unshared_sweep(service, opts, query, memo)))
    return winners, time.perf_counter() - started


def expected_pairs(graph, options, requests):
    """The exact (λ, root) pair count the counters must partition."""
    grid = len(_lambda_grid(graph.num_nodes, options.beta))
    total = 0
    seen = set()
    for query, roots in requests:
        opts = options if roots is None else options.replace(roots=roots)
        key = (frozenset(query), opts)
        if key in seen:  # result-cache hit: no sweep, no pairs
            continue
        seen.add(key)
        total += grid * len(_root_list(opts, frozenset(query)))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=4)
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--unique", type=int, default=8,
                        help="distinct query sets in the Zipf stream")
    parser.add_argument("--ablation", type=int, default=8,
                        help="root-ablation requests appended to the stream")
    parser.add_argument("--extra-roots", type=int, default=8,
                        help="random extra roots per ablation request")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of-N timing for each path")
    parser.add_argument("--delta-ops", type=int, default=6,
                        help="edge mutations in the epoch-flip delta")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless pruned and unpruned sweeps "
        "are bit-identical (cold/warm, across backends, across the "
        "mutation epoch), pruning fires, and the counters partition the "
        "sweep (CI regression gate; no timing gate, no file written)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_pruning.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 1_500
        if args.edges == parser.get_default("edges"):
            args.edges = 6_000
        if args.requests == parser.get_default("requests"):
            args.requests = 8
        if args.unique == parser.get_default("unique"):
            args.unique = 4
        if args.ablation == parser.get_default("ablation"):
            args.ablation = 4
        if args.repeats == parser.get_default("repeats"):
            args.repeats = 1

    rng = random.Random(args.seed)
    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_requests(graph, args, rng)
    pruned_opts = SolveOptions()
    unpruned_opts = pruned_opts.replace(prune=False)
    print(
        f"instance: {graph}, {len(requests)} requests "
        f"({args.requests} Zipf + {args.ablation} root-ablation with "
        f"{args.extra_roots} extra roots), seed={args.seed}",
        flush=True,
    )

    # --- the three paths, each cold, best-of-N --------------------------
    def best_of(run):
        best_seconds = math.inf
        winners = None
        for _ in range(args.repeats):
            outcome, seconds = run()
            if seconds < best_seconds:
                best_seconds = seconds
            winners = outcome
        return winners, best_seconds

    unshared_winners, unshared_seconds = best_of(
        lambda: serve_unshared(
            ConnectorService(graph, unpruned_opts), unpruned_opts, requests
        )
    )
    shared_winners, shared_seconds = best_of(
        lambda: serve(
            ConnectorService(graph, unpruned_opts), unpruned_opts, requests
        )
    )
    pruned_service = ConnectorService(graph, pruned_opts)
    pruned_winners, pruned_seconds = serve(pruned_service, pruned_opts, requests)
    for _ in range(args.repeats - 1):
        fresh = ConnectorService(graph, pruned_opts)
        _, seconds = serve(fresh, pruned_opts, requests)
        pruned_seconds = min(pruned_seconds, seconds)
    stats = pruned_service.stats()

    per_query = len(requests)
    unshared_ms = unshared_seconds / per_query * 1e3
    shared_ms = shared_seconds / per_query * 1e3
    pruned_ms = pruned_seconds / per_query * 1e3
    print(f"unshared sweep : {unshared_seconds:8.3f}s ({unshared_ms:7.1f} ms/query)")
    print(f"λ-shared       : {shared_seconds:8.3f}s ({shared_ms:7.1f} ms/query)")
    print(f"shared + pruned: {pruned_seconds:8.3f}s ({pruned_ms:7.1f} ms/query)")
    print(f"prune counters : {stats.pairs_pruned} pruned / "
          f"{stats.pairs_scored} scored ({stats.prune_rate:.1%} of pairs)",
          flush=True)

    # --- identity: the three paths agree on every winner ----------------
    winners_agree = (
        unshared_winners == shared_winners == pruned_winners
    )

    # --- identity: warm equals cold under pruning -----------------------
    warm_winners, _ = serve(pruned_service, pruned_opts, requests)
    warm_identical = warm_winners == pruned_winners

    # --- identity: the dict reference oracle agrees with the pruned winner
    spot = [q for q, roots in requests if roots is None][:2]
    oracle_agrees = all(
        winner(reference_wiener_steiner(graph, q)) == winner(pruned_service.solve(q))
        for q in spot
    )

    # --- identity across a mutation epoch -------------------------------
    delta = make_delta(graph, rng, args.delta_ops)
    mutated = graph.copy()
    delta.apply_to_graph(mutated)
    epoch = pruned_service.apply_delta(delta)
    unpruned_after = ConnectorService(mutated, unpruned_opts)
    post_requests = requests[:3] + requests[-2:]
    post_identical = True
    for query, roots in post_requests:
        p_opts = pruned_opts if roots is None else pruned_opts.replace(roots=roots)
        u_opts = unpruned_opts if roots is None else unpruned_opts.replace(roots=roots)
        if winner(pruned_service.solve(query, p_opts)) != winner(
            unpruned_after.solve(query, u_opts)
        ):
            post_identical = False
    spot_query = requests[0][0]
    # One-shot wiener_steiner shares the default (pruned) configuration,
    # so the full identical() contract applies, candidates trace included.
    spot_identical = identical(
        pruned_service.solve(spot_query), wiener_steiner(mutated, spot_query)
    )

    # --- counters partition the sweep ------------------------------------
    total_pairs = expected_pairs(graph, pruned_opts, requests)
    counters_partition = stats.pairs_pruned + stats.pairs_scored == total_pairs

    print(f"identity: paths-agree={winners_agree} warm={warm_identical} "
          f"oracle={oracle_agrees} post-epoch={post_identical} "
          f"spot-vs-one-shot={spot_identical} (epoch {epoch})")

    failures = []
    if not winners_agree:
        failures.append("unshared, shared, and pruned sweeps disagree")
    if not warm_identical:
        failures.append("warm re-serve differs from the cold pruned sweep")
    if not oracle_agrees:
        failures.append("the dict reference oracle disagrees with the pruned winner")
    if not post_identical:
        failures.append("pruned and unpruned sweeps disagree after the epoch flip")
    if not spot_identical:
        failures.append("post-delta answer differs from one-shot wiener_steiner")
    if epoch != 1:
        failures.append(f"epoch did not advance to 1 (saw {epoch})")
    if not counters_partition:
        failures.append(
            f"counters do not partition the sweep: {stats.pairs_pruned} + "
            f"{stats.pairs_scored} != {total_pairs}"
        )
    if stats.pairs_pruned <= 0:
        failures.append("pruning never fired on the mixed workload")
    if not args.smoke and pruned_seconds >= unshared_seconds:
        failures.append(
            f"pruned+shared sweep ({pruned_ms:.1f} ms/query) did not beat "
            f"the unshared baseline ({unshared_ms:.1f} ms/query)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.smoke:
        print("smoke OK")
        return 0

    record = {
        "benchmark": "certified λ×root pruning + λ work sharing vs the "
                     "historical per-pair sweep",
        "instance": {
            "model": "erdos_renyi + connectify",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "query_size": args.query_size,
            "seed": args.seed,
        },
        "workload": {
            "zipf_requests": args.requests,
            "distinct_queries": args.unique,
            "ablation_requests": args.ablation,
            "extra_roots_per_ablation": args.extra_roots,
            "note": "root-ablation requests extend the Lemma-5 default "
                    "roots with random distant vertices — the regime "
                    "where certified root-level pruning fires",
        },
        "repeats": args.repeats,
        "unshared_ms_per_query": round(unshared_ms, 2),
        "shared_ms_per_query": round(shared_ms, 2),
        "pruned_ms_per_query": round(pruned_ms, 2),
        "speedup_shared_over_unshared": round(unshared_seconds / shared_seconds, 3),
        "speedup_pruned_over_unshared": round(unshared_seconds / pruned_seconds, 3),
        "pruning": {
            "pairs_pruned": stats.pairs_pruned,
            "pairs_scored": stats.pairs_scored,
            "prune_rate": round(stats.prune_rate, 4),
            "counters_partition_sweep": counters_partition,
        },
        "identical_connectors": {
            "paths_agree": winners_agree,
            "warm_equals_cold": warm_identical,
            "dict_equals_csr": oracle_agrees,
            "across_mutation_epoch": post_identical,
            "spot_vs_one_shot": spot_identical,
        },
        "epoch_after": epoch,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
