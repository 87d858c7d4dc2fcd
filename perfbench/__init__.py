"""The repository's benchmark: seeded workloads driven through the public
serving entry points, end-to-end metrics, and a traced per-layer split.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md``.
"""
