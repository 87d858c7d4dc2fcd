"""Correctness: served answers against fresh, cold one-shot solves.

Expected answers always come from a new :class:`ConnectorService` per
query -- never the instance that serves the workload -- and are computed
outside every timed phase.  Two answers agree when their connector nodes,
Wiener index and the sweep's root / λ / candidate count agree, the fields
``benchmarks/bench_scale.py``'s spot check compares.
"""

from __future__ import annotations

from repro.core.service import ConnectorService
from repro.serving.protocol import result_to_payload

METADATA_FIELDS = ("root", "lambda", "candidates")


def summary(payload: dict) -> tuple:
    """The compared fields of one connector document, as a hashable tuple."""
    metadata = payload["metadata"]
    return (
        tuple(payload["nodes"]),
        payload["wiener_index"],
        *(metadata.get(field) for field in METADATA_FIELDS),
    )


def expected(query, *, graph=None, csr=None) -> tuple:
    """The summary a fresh, cold service returns for ``query``."""
    with ConnectorService(graph, csr=csr) as service:
        return summary(result_to_payload(service.solve(query)))


def describe(query, want: tuple, got: tuple) -> str:
    return f"query {sorted(query)}: expected {want}, served {got}"
