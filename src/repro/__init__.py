"""repro — a reproduction of "The Minimum Wiener Connector Problem" (SIGMOD 2015).

Given a connected graph ``G`` and a query set ``Q``, find a connected
subgraph containing ``Q`` that minimizes the Wiener index (the sum of all
pairwise shortest-path distances).  The package ships:

* :func:`repro.minimum_wiener_connector` — the paper's constant-factor
  approximation algorithm (``ws-q``);
* :class:`repro.ConnectorService` — the persistent serving API: build one
  index per graph, then ``solve`` / ``solve_many`` many queries against it
  (cached roots, candidates, and results);
* :class:`repro.ShardedConnectorService` — the scale-out layer: the same
  contract served by N persistent shard processes behind a
  consistent-hash router, bit-identical to the one-shot solver;
* :class:`repro.AsyncGateway` — the asyncio front-end: micro-batches
  concurrently-arriving ``await gateway.asolve(q)`` requests into
  ``solve_many`` windows over either service, coalescing identical
  in-flight queries and backpressuring on queue depth (``repro serve``
  exposes it as a JSON-lines TCP daemon, see :mod:`repro.serving`);
* exact algorithms and certified lower bounds (``repro.core.exact``,
  ``repro.solvers``);
* the evaluation baselines ``ppr``, ``cps``, ``ctp``, ``st``
  (``repro.baselines``);
* every dataset stand-in, workload generator, and experiment harness needed
  to regenerate the paper's tables and figures (``repro.datasets``,
  ``repro.workloads``, ``repro.experiments``).

Quickstart
----------
>>> from repro import Graph, minimum_wiener_connector
>>> from repro.datasets import karate_club
>>> graph = karate_club()
>>> result = minimum_wiener_connector(graph, query=[12, 25, 26, 30])
>>> result.query <= result.nodes
True
"""

from repro.core import (
    AsyncGateway,
    ConnectorResult,
    ConnectorService,
    ShardedConnectorService,
    SolveOptions,
    minimum_wiener_connector,
    steiner_tree_unweighted,
    wiener_steiner,
)
from repro.errors import (
    DisconnectedGraphError,
    EdgeNotFoundError,
    GraphError,
    InvalidQueryError,
    NodeNotFoundError,
    ParseError,
    ReproError,
    SolverBudgetExceeded,
)
from repro.graphs import Graph, WeightedGraph, wiener_index

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "WeightedGraph",
    "wiener_index",
    "AsyncGateway",
    "ConnectorResult",
    "ConnectorService",
    "ShardedConnectorService",
    "SolveOptions",
    "minimum_wiener_connector",
    "wiener_steiner",
    "steiner_tree_unweighted",
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "DisconnectedGraphError",
    "InvalidQueryError",
    "SolverBudgetExceeded",
    "ParseError",
    "__version__",
]
