"""End-to-end engine benchmark: ``wiener_steiner`` vs the dict reference oracle.

Measures the full Algorithm-1 sweep (λ grid × roots, Mehlhorn solves,
AdjustDistances, scoring) on a connected Erdős–Rényi graph twice: through
the serving engine (one-shot ``wiener_steiner``, CSR arrays, certified
pruning) and through :func:`repro.core.reference.reference_wiener_steiner`
(the pure-Python dict implementation, no caches, no pruning).  It checks
that both pick the same connector, root and λ, and records the result in
``BENCH_backend.json`` so the performance trajectory has a baseline.

Usage::

    python benchmarks/bench_backend.py            # reference: 10k nodes / 50k edges, |Q|=10
    python benchmarks/bench_backend.py --smoke    # small CI gate: fails if CSR is slower

The reference configuration's target is a ``>= 5x`` end-to-end speedup.
``--smoke`` runs a reduced instance in a few seconds and exits non-zero
if the engine fails to beat the oracle or the answers diverge.
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
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.reference import reference_wiener_steiner
from repro.core.wiener_steiner import wiener_steiner
from repro.graphs.generators import connectify, erdos_renyi


def build_instance(num_nodes: int, num_edges: int, query_size: int, seed: int):
    rng = random.Random(seed)
    p = 2 * num_edges / (num_nodes * (num_nodes - 1))
    graph = connectify(erdos_renyi(num_nodes, p, rng=rng), rng=rng)
    query = rng.sample(sorted(graph.nodes()), query_size)
    return graph, query


def run_solver(solve, graph, query, repeats: int = 1):
    """Time ``solve(graph, query)``; ``repeats > 1`` keeps the best run.

    Best-of-N damps scheduler noise on shared CI runners, where a single
    unlucky run could flip the smoke gate's engine-vs-oracle comparison.
    """
    best_elapsed = math.inf
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = solve(graph, query)
        best_elapsed = min(best_elapsed, time.perf_counter() - started)
    return best_elapsed, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless the CSR engine beats the dict "
        "oracle with an identical answer (CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_backend.json"),
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

    graph, query = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    print(f"instance: {graph}, |Q|={len(query)}, seed={args.seed}", flush=True)

    repeats = 3 if args.smoke else 1
    csr_seconds, csr_result = run_solver(wiener_steiner, graph, query, repeats)
    print(f"csr engine : {csr_seconds:8.3f}s  |V(H)|={csr_result.size}", flush=True)
    dict_seconds, dict_result = run_solver(
        reference_wiener_steiner, graph, query, repeats
    )
    print(f"dict oracle: {dict_seconds:8.3f}s  |V(H)|={dict_result.size}", flush=True)

    # The oracle never prunes, so its candidates count may differ; the
    # winner (nodes, root, λ) may not.
    identical = csr_result.nodes == dict_result.nodes and all(
        csr_result.metadata[key] == dict_result.metadata[key]
        for key in ("root", "lambda")
    )
    speedup = dict_seconds / csr_seconds if csr_seconds > 0 else float("inf")
    print(f"identical connectors: {identical}")
    print(f"speedup (dict / csr): {speedup:.2f}x")

    if not identical:
        print("FAIL: engine and oracle returned different answers", file=sys.stderr)
        return 1
    if args.smoke:
        if csr_seconds >= dict_seconds:
            print(
                f"FAIL: CSR engine ({csr_seconds:.3f}s) is not faster than "
                f"the dict oracle ({dict_seconds:.3f}s)",
                file=sys.stderr,
            )
            return 1
        print("smoke OK")
        return 0

    record = {
        "benchmark": "wiener_steiner engine vs dict reference oracle",
        "instance": {
            "model": "erdos_renyi + connectify",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "query_size": len(query),
            "seed": args.seed,
        },
        "dict_seconds": round(dict_seconds, 4),
        "csr_seconds": round(csr_seconds, 4),
        "speedup": round(speedup, 2),
        "identical_connectors": identical,
        "connector_size": csr_result.size,
        "connector_wiener_index": csr_result.wiener_index,
        "candidates_scored": csr_result.metadata["candidates"],
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
