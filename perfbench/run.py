"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-ba --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every line before
it is a human-readable record (environment stamp, input digests, sample
counts).  The exit code is non-zero when any correctness check fails, an
input cannot be generated, or ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git_commit(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(traced: bool) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "commit": git_commit(ROOT),
        "traced": traced,
    }


def nearest_rank(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Max RSS of this process or of any reaped child (shard), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(outcome) -> dict[str, tuple[float, str]]:
    latencies_ms = [s * 1000.0 for s in outcome.latencies_s]
    return {
        "throughput_rps": (len(latencies_ms) / outcome.wall_s, "1/s"),
        "latency_p50_ms": (nearest_rank(latencies_ms, 0.5), "ms"),
        "latency_p90_ms": (nearest_rank(latencies_ms, 0.9), "ms"),
        "success_rate": (1.0 - outcome.failed / outcome.attempted, "share"),
        "mutate_p50_ms": (statistics.median(outcome.mutate_s) * 1000.0, "ms"),
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def abandon() -> None:
    """End a wedged run: dump every thread's stack, kill the shard
    processes (forked shards hold both ends of their pipes, so they would
    not notice this process exiting), and exit with status 3."""
    faulthandler.dump_traceback(file=sys.__stderr__)
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5)
    os._exit(3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    traced = bool(args.trace)
    watchdog = threading.Timer(110 + 3 * args.seconds, abandon)
    watchdog.daemon = True
    watchdog.start()
    try:
        print("env " + json.dumps(environment(traced), sort_keys=True), flush=True)
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, traced)
    finally:
        watchdog.cancel()

    print("inputs " + " ".join(f"{k}={v}" for k, v in outcome.digests.items()))
    samples = len(outcome.latencies_s)
    print(
        f"samples latency={samples} beyond_p90={samples - math.ceil(0.9 * samples)} "
        f"mutate={len(outcome.mutate_s)} setup={len(outcome.setup_s)} "
        f"error_rate={outcome.failed / outcome.attempted:.6f}"
    )
    for problem in outcome.wrong:
        print("WRONG " + problem)
    metrics = outcome.per_layer if traced else end_to_end(outcome)
    correct = outcome.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
