"""Parallel WienerSteiner — the Map-Reduce scheme of §6.6.

The paper observes that Algorithm 1 parallelizes trivially: each candidate
root ``r ∈ Q`` is independent, so ``|Q|`` workers can each compute the BFS
from their root, sweep λ, build and solve the Steiner instances, and score
their own candidates (Map); the driver then keeps the best candidate
(Reduce), for a linear ``|Q|``-fold speedup when the graph fits in memory.

Historically this module owned its own process pool and shipped the whole
hashable-node ``Graph`` to every worker.  It is now a thin compatibility
wrapper over :meth:`repro.core.service.ConnectorService.solve_parallel_roots`,
which ships each worker the two CSR int arrays (plus the label list)
instead — the pickled payload shrinks from the full adjacency dict to a
few flat arrays, and the workers rebuild their engines from the arrays
once per process.

Two grains of parallelism live here now:

* :func:`parallel_wiener_steiner` — *within* one query, one worker per
  candidate root (the paper's Map-Reduce);
* :func:`sharded_batch` — *across* queries, one persistent
  :class:`~repro.core.sharded.ShardedConnectorService` shard per worker,
  torn down when the batch is done.  Callers serving continuous traffic
  should hold a ``ShardedConnectorService`` open instead of paying the
  spawn cost per batch.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.options import SolveOptions
from repro.core.result import ConnectorResult
from repro.graphs.graph import Graph, Node


def parallel_wiener_steiner(
    graph: Graph,
    query: Iterable[Node],
    max_workers: int | None = None,
    beta: float = 1.0,
    adjust: bool = True,
) -> ConnectorResult:
    """Run WienerSteiner with one worker process per candidate root.

    Functionally equivalent to :func:`repro.core.wiener_steiner` with
    ``selection="wiener"`` (ties between equal-quality candidates may
    resolve differently).  Worth it when ``|Q|`` and the graph are large
    enough to amortize process start-up and the (now array-sized) worker
    payload.

    Parameters
    ----------
    max_workers:
        Process count; defaults to ``min(|Q|, os.cpu_count())``.  Each
        worker adopts the driver's shared CSR arrays.
    """
    from repro.core.service import ConnectorService

    service = ConnectorService(
        graph,
        SolveOptions(beta=beta, adjust=adjust, selection="wiener"),
    )
    return service.solve_parallel_roots(query, max_workers=max_workers)


def sharded_batch(
    graph: Graph,
    queries: Iterable[Iterable[Node]],
    options: SolveOptions | None = None,
    *,
    n_shards: int | None = None,
) -> list[ConnectorResult]:
    """Serve one batch through a throwaway sharded service.

    Spawns a :class:`~repro.core.sharded.ShardedConnectorService`, routes
    the batch across its shards, and tears the shards down — the
    batch-scoped convenience for scripts and the CLI.  Results are in
    input order and bit-identical to one-shot
    :func:`~repro.core.wiener_steiner.wiener_steiner` calls; long-lived
    servers should keep the sharded service open across batches so shard
    caches stay warm.
    """
    from repro.core.sharded import ShardedConnectorService

    with ShardedConnectorService(graph, options, n_shards=n_shards) as service:
        return service.solve_many(queries)
