"""Seeded input generators for the workloads, and digests of every input.

Everything a workload feeds the system -- host graph, query pool, request
stream, delta stream -- is a pure function of the workload seed, so two
runs with one seed use the same inputs, and the printed digests prove it.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence

from repro.core.versioned import GraphDelta
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import barabasi_albert_edges, connectify, erdos_renyi
from repro.graphs.graph import Graph


def ba_csr(nodes: int, attachment: int, seed: int) -> CSRGraph:
    """A Barabási–Albert host streamed straight into CSR arrays."""
    edges = barabasi_albert_edges(nodes, attachment, random.Random(seed))
    return CSRGraph.from_edge_stream(nodes, edges)


def er_graph(nodes: int, edges: int, seed: int) -> Graph:
    """The connected Erdős–Rényi reference host (``bench_backend``'s recipe:
    ``G(n, p)`` with ``p`` set for ``edges`` expected edges, then stitched
    into one component)."""
    rng = random.Random(seed)
    p = 2 * edges / (nodes * (nodes - 1))
    return connectify(erdos_renyi(nodes, p, rng=rng), rng=rng)


def distinct_queries(
    nodes: Sequence[int], count: int, size: int, seed: int
) -> list[tuple[int, ...]]:
    """``count`` distinct query sets of ``size`` vertices each."""
    rng = random.Random(seed)
    queries: list[tuple[int, ...]] = []
    seen: set[frozenset] = set()
    while len(queries) < count:
        query = tuple(rng.sample(nodes, size))
        key = frozenset(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def zipf_stream(pool_size: int, length: int, exponent: float, seed: int) -> list[int]:
    """``length`` pool positions drawn with Zipf(``exponent``) rank weights."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool_size)]
    return random.Random(seed).choices(range(pool_size), weights=weights, k=length)


def rotating_stream(
    pool_size: int, hot: int, segment: int, segments: int, exponent: float, seed: int
) -> list[int]:
    """``segments`` runs of ``segment`` Zipf draws, each over its own seeded
    ``hot``-entry subset of the pool (ranked in sampled order).

    A write lands every ``segment`` reads, so each epoch re-solves a fresh
    few keys: re-solve cost averages over many keys and shard placements
    in one run instead of hinging on a single small hot set.
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(hot)]
    stream: list[int] = []
    for _ in range(segments):
        subset = rng.sample(range(pool_size), hot)
        stream.extend(rng.choices(subset, weights=weights, k=segment))
    return stream


def check_applicable(graph: Graph, delta: GraphDelta) -> None:
    """Raise ``ValueError`` unless ``delta`` applies to ``graph`` as it is now."""
    for u, v in delta.inserts:
        if graph.has_edge(u, v):
            raise ValueError(f"delta inserts existing edge ({u}, {v})")
    for u, v in delta.deletes:
        if not graph.has_edge(u, v):
            raise ValueError(f"delta deletes missing edge ({u}, {v})")


def delta_stream(graph: Graph, count: int, inserts: int, seed: int) -> list[GraphDelta]:
    """Deltas that each insert ``inserts`` random non-edges of ``graph`` and
    delete the previous delta's inserts.

    The graph therefore oscillates around ``graph`` itself and never loses
    one of its own edges, so it stays connected at every epoch.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    deltas: list[GraphDelta] = []
    previous: list[tuple[int, int]] = []
    for _ in range(count):
        taken = {frozenset(edge) for edge in previous}
        fresh: list[tuple[int, int]] = []
        while len(fresh) < inserts:
            u, v = rng.sample(nodes, 2)
            key = frozenset((u, v))
            if graph.has_edge(u, v) or key in taken:
                continue
            taken.add(key)
            fresh.append((u, v))
        deltas.append(GraphDelta(inserts=tuple(fresh), deletes=tuple(previous)))
        previous = fresh
    return deltas


def undo_pairs(
    graph: Graph, count: int, inserts: int, seed: int
) -> list[tuple[GraphDelta, GraphDelta]]:
    """``count`` pairs of a delta inserting ``inserts`` random non-edges of
    ``graph`` and the delta deleting them again."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    pairs = []
    for _ in range(count):
        fresh: set[tuple[int, int]] = set()
        while len(fresh) < inserts:
            u, v = sorted(rng.sample(nodes, 2))
            if not graph.has_edge(u, v):
                fresh.add((u, v))
        edges = tuple(sorted(fresh))
        pairs.append((GraphDelta(inserts=edges), GraphDelta(deletes=edges)))
    return pairs


def _sha(chunks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]


def csr_digest(csr: CSRGraph) -> str:
    return _sha((csr.indptr.tobytes(), csr.indices.tobytes()))


def graph_digest(graph: Graph) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    return _sha(f"{u},{v};".encode() for u, v in edges)


def stream_digest(items: Iterable) -> str:
    return _sha(f"{item!r};".encode() for item in items)


def delta_digest(deltas: Iterable[GraphDelta]) -> str:
    return _sha(delta.digest().encode() for delta in deltas)
