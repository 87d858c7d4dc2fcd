"""ConnectorService — a persistent multi-query serving API over one graph.

The paper's §6.6 scalability discussion (parallel roots, approximate
distances) assumes the expensive per-graph state is *reusable*; before
this module the public API was one-shot — every ``wiener_steiner()`` call
rebuilt the CSR arrays, re-ran every root BFS, and threw all of it away.
:class:`ConnectorService` is the layer that amortizes:

* **one graph index** — the CSR arrays are built once (on the first
  sweep) and shared by every query through one
  :class:`~repro.core.fastpath.CSRWienerSteinerEngine`;
* **per-root BFS caches with LRU bounds** — Algorithm 1's line-1 BFS data
  (distances, canonical parents, the Lemma-4 per-arc ``max`` array) is
  keyed by root and survives across queries, so workloads whose queries
  share vertices never recompute a root.  The LRU bound keeps a
  long-lived service's memory proportional to the hot root set, not to
  the query history;
* **candidate / score / result caches** — a ``(root, λ, terminals)``
  candidate, an exact (or deterministic sampled) Wiener score, and a
  whole ``(query, options)`` result are each pure functions of their key,
  so repeated and overlapping queries are answered from cache with
  *bit-identical* connectors;
* **optional landmark index** — a :class:`repro.graphs.landmarks.LandmarkIndex`
  built once per service (on the shared CSR arrays) for approximate
  distance queries alongside exact solves.

Identity contract
-----------------

``ConnectorService.solve`` returns the *same connector, bit for bit*, as
the one-shot :func:`repro.core.wiener_steiner.wiener_steiner` under equal
options — cold or warm caches, after LRU eviction, alone or inside a
``solve_many`` batch.  Every cache key captures the full input of the
value it stores, and the λ×root sweep below is the same canonical loop the
one-shot path always ran (``wiener_steiner()`` is now literally a
throwaway service).  The property-test suite asserts this on random
corpora.

Quickstart
----------
>>> from repro.core.service import ConnectorService
>>> from repro.datasets import karate_club
>>> service = ConnectorService(karate_club())
>>> results = service.solve_many([[12, 25], [12, 26, 30]])
>>> [sorted(r.query) for r in results]
[[12, 25], [12, 26, 30]]
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.fastpath import CSRWienerSteinerEngine
from repro.core.lru import LRUCache
from repro.core.options import SolveOptions
from repro.core.pruning import candidate_bound, root_bound
from repro.core.result import ConnectorResult
from repro.core.versioned import (
    GraphDelta,
    VersionedIndex,
    csr_has_edge,
)
from repro.core.wiener_steiner import _lambda_grid, _score, _validate_query
from repro.errors import (
    DeltaError,
    DisconnectedGraphError,
    GraphError,
    InvalidQueryError,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node

__all__ = [
    "ConnectorService",
    "ServiceStats",
    "SweepOutcome",
    "cache_hit_rate",
    "service_from_payload",
]

#: The cache layers whose hit/miss counters back ``hit_rate()`` helpers.
HIT_RATE_LAYERS = ("result", "candidate", "score")


def cache_hit_rate(snapshots, layer: str) -> float:
    """Aggregate hit rate of one cache layer, ``0.0`` before any lookup.

    ``snapshots`` is any iterable of :class:`ServiceStats`-shaped
    objects (one for a single service, the per-shard tuple for a sharded
    one).  Shared by :meth:`ServiceStats.hit_rate` and
    :meth:`~repro.core.sharded.ShardedStats.hit_rate` so the layer names,
    the error message, and the zero-lookup guard cannot drift apart.
    """
    if layer not in HIT_RATE_LAYERS:
        raise ValueError(
            f"unknown cache layer {layer!r}; choose from {HIT_RATE_LAYERS}"
        )
    hits = misses = 0
    for snapshot in snapshots:
        hits += getattr(snapshot, f"{layer}_hits")
        misses += getattr(snapshot, f"{layer}_misses")
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class ServiceStats:
    """Cache observability snapshot (see :meth:`ConnectorService.stats`).

    Hit/miss counters cover the whole service lifetime; the ``*_cache_size``
    fields report *current* occupancy, which is what LRU-bound tests and
    shard introspection need.  ``uptime_seconds`` is how long this replica
    has existed — for a remote shard that is the *daemon's* lifetime
    (which may predate any router connecting), the baseline health
    dashboards and failover decisions compare against.
    """

    queries_served: int
    result_hits: int
    result_misses: int
    candidate_hits: int
    candidate_misses: int
    score_hits: int
    score_misses: int
    cached_roots: int
    result_cache_size: int = 0
    candidate_cache_size: int = 0
    score_cache_size: int = 0
    uptime_seconds: float = 0.0
    #: Graph version this replica serves: 0 at construction, +1 per
    #: applied delta.  The fields below are lifetime totals across every
    #: :meth:`ConnectorService.apply_delta` — how many cache entries the
    #: scoped invalidation evicted vs proved safe to keep.  All three
    #: default for wire compatibility with pre-mutation stats payloads.
    epoch: int = 0
    entries_invalidated: int = 0
    entries_retained: int = 0
    #: Certified-pruning counters: of all the (root, λ) pairs the λ×root
    #: sweeps of this replica's lifetime visited, how many were skipped
    #: because a provable score lower bound exceeded the incumbent
    #: (``pairs_pruned``) vs carried through candidate construction and
    #: scoring (``pairs_scored``).  They partition the visited pairs:
    #: ``pairs_pruned + pairs_scored`` equals the lifetime pair total.
    #: ``landmark_rebuilds`` counts LandmarkIndex constructions (lazy
    #: first builds and the eager post-delta rebuilds alike).  All three
    #: default for wire compatibility with older stats payloads.
    pairs_pruned: int = 0
    pairs_scored: int = 0
    landmark_rebuilds: int = 0

    @property
    def prune_rate(self) -> float:
        """Share of visited sweep pairs skipped by certified pruning."""
        total = self.pairs_pruned + self.pairs_scored
        return self.pairs_pruned / total if total else 0.0

    def hit_rate(self, layer: str = "result") -> float:
        """Cache hit rate of one layer, ``0.0`` before any lookup.

        ``layer`` is ``"result"`` (default), ``"candidate"`` or
        ``"score"`` — the three LRU layers with hit/miss counters.  The
        zero-lookup guard means a cold service reports ``0.0`` instead of
        dividing by zero, so benchmarks and dashboards can print the
        ratio unconditionally.
        """
        return cache_hit_rate((self,), layer)


@dataclass(frozen=True)
class SweepOutcome:
    """The picklable outcome of one λ×root sweep (label space).

    This is the unit the sharded serving layer ships between processes:
    everything a graph-holding router needs to build a
    :class:`~repro.core.result.ConnectorResult`, and nothing it does not
    (no host graph, no subgraph).
    """

    nodes: frozenset
    root: object
    lam: float | None
    candidates: int
    key: float
    runtime_seconds: float


class ConnectorService:
    """Serve many Min-Wiener-Connector queries from one persistent index.

    Parameters
    ----------
    graph:
        The host graph.  May be ``None`` when a prebuilt ``csr`` is given
        (shard replicas construct services this way); such a
        service can run sweeps but only the graph-holding parent can
        build :class:`~repro.core.result.ConnectorResult` objects.
    options:
        Default :class:`~repro.core.options.SolveOptions` for every solve;
        individual calls may override them.
    csr:
        A prebuilt :class:`~repro.graphs.csr.CSRGraph` to adopt instead of
        packing ``graph``.
    max_cached_roots / max_cached_candidates / max_cached_scores /
    max_cached_results:
        LRU bounds of the four cache layers (``None`` = unbounded).  The
        defaults keep a busy service's footprint modest; a throwaway
        one-shot service never fills them.
    landmarks:
        When set, :attr:`landmark_index` lazily builds a
        :class:`~repro.graphs.landmarks.LandmarkIndex` with this many
        landmarks, reusing the service's CSR arrays.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        options: SolveOptions | None = None,
        *,
        csr: CSRGraph | None = None,
        max_cached_roots: int | None = 512,
        max_cached_candidates: int | None = 4096,
        max_cached_scores: int | None = 4096,
        max_cached_results: int | None = 1024,
        landmarks: int | None = None,
        epoch: int = 0,
    ) -> None:
        if graph is None and csr is None:
            raise GraphError("ConnectorService needs a graph or a CSRGraph")
        # Defensive copy: the service *owns* its graph.  Cached answers are
        # pure functions of the graph content at a given epoch, so a caller
        # mutating the submitted graph behind the service's back would
        # silently corrupt every warm entry; the only supported mutation
        # path is apply_delta, which versions the copy.
        self.graph = graph.copy() if graph is not None else None
        self.options = options if options is not None else SolveOptions()
        self._versioned = VersionedIndex(self.graph, csr, epoch=epoch)
        self._solver: CSRWienerSteinerEngine | None = None
        self._max_cached_roots = max_cached_roots
        self._candidates = LRUCache(max_cached_candidates)
        self._scores = LRUCache(max_cached_scores)
        self._results = LRUCache(max_cached_results)
        self._landmark_count = landmarks
        self._landmark_index = None
        self._landmark_rebuilds = 0
        self._queries_served = 0
        self._entries_invalidated = 0
        self._entries_retained = 0
        self._pairs_pruned = 0
        self._pairs_scored = 0
        self._created = time.monotonic()

    # ------------------------------------------------------------------
    # Shape / validation helpers
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        if self.graph is not None:
            return self.graph.num_nodes
        return self._versioned.csr.num_nodes

    def _validate(self, query_set: frozenset, options: SolveOptions) -> None:
        """Reject a query or pinned root list the graph cannot serve.

        Runs before any sweep work, so a bad request fails with a typed
        :class:`~repro.errors.InvalidQueryError` (which the sharded router
        raises before it scatters) instead of a ``KeyError`` mid-sweep.
        """
        if self.graph is not None:
            _validate_query(self.graph, query_set)
            known = self.graph.has_node
        else:
            if not query_set:
                raise InvalidQueryError("query set must be non-empty")
            known = self._versioned.csr.index_of.__contains__
            missing = [q for q in query_set if not known(q)]
            if missing:
                raise InvalidQueryError(
                    f"query vertices not in graph: {sorted(map(repr, missing))}"
                )
        if options.roots is not None:
            missing = [r for r in options.roots if not known(r)]
            if missing:
                raise InvalidQueryError(
                    f"root candidates not in graph: {sorted(map(repr, missing))}"
                )

    def index_digest(self) -> str:
        """A process- and host-stable hex digest of the graph index content.

        The handshake token of the remote shard transport: a
        :class:`~repro.core.sharded.ShardedConnectorService` router sends
        this digest to every shard-host daemon at connect time and the
        daemon refuses mismatches — two processes that do not serve the
        *same* graph must never share a key ring, or the bit-identity
        contract breaks silently (a shard would sweep a different
        vertex/edge set than the router validates against).

        Built from the :func:`~repro.core.options.stable_repr` of the
        node and canonical edge sets, so it agrees wherever the same
        graph is loaded: router or shard host, dict or CSR index, any
        ``PYTHONHASHSEED``, today's process or a restarted one.
        """
        return self._versioned.index_digest()

    def _engine(self) -> CSRWienerSteinerEngine:
        """The service's one solver engine, built on the first sweep."""
        if self._solver is None:
            # The arrays come from the version index, so the epoch counter
            # and the engine can never describe different graphs.
            self._solver = CSRWienerSteinerEngine(
                csr=self._versioned.csr, max_cached_roots=self._max_cached_roots
            )
        return self._solver

    def _merge(self, options: SolveOptions | None) -> SolveOptions:
        if options is None:
            return self.options
        if not isinstance(options, SolveOptions):
            raise TypeError(
                f"options must be a SolveOptions, got {type(options).__name__}"
            )
        return options

    # ------------------------------------------------------------------
    # The λ×root sweep (Algorithm 1) with service-level caches
    # ------------------------------------------------------------------
    def _solve_ws(self, query_set: frozenset, options: SolveOptions) -> SweepOutcome:
        """Run one WienerSteiner sweep; returns a label-space outcome.

        This is the canonical λ-major loop of the historical one-shot
        ``wiener_steiner``: same grid, same root order, same per-query
        candidate dedup, same strict-improvement selection.  The caches
        only short-circuit recomputation of pure functions, so warm and
        cold services return identical outcomes.

        Two certified accelerations ride on the canonical order (both are
        pure functions of ``(graph, query, options)``, so every serving
        path — one-shot, warm service, shard replica, any epoch — makes
        the same decisions):

        * **certified pruning** (``options.prune``, default on): a root
          whose :func:`~repro.core.pruning.root_bound` exceeds the
          incumbent at its first canonical encounter is skipped for the
          whole grid, and a constructed candidate whose
          :func:`~repro.core.pruning.candidate_bound` exceeds the
          incumbent skips its (expensive) scoring.  The bounds hold under
          any scoring root and the incumbent only decreases, so a pruned
          pair could never have produced a strict improvement — the
          winner is bit-identical with pruning on or off (the
          ``candidates`` trace may legitimately shrink, since pruned
          roots' candidate sets are never materialized);
        * **λ work sharing**: each root's candidates are built for the
          whole grid in one engine batch at the root's first unpruned
          encounter (one vectorized reweighting pass), honoring the
          candidate LRU per ``(root, λ)`` entry.
        """
        started = time.perf_counter()
        self._validate(query_set, options)

        if len(query_set) == 1:
            only = next(iter(query_set))
            return SweepOutcome(
                nodes=frozenset([only]), root=only, lam=None, candidates=1,
                key=0.0, runtime_seconds=time.perf_counter() - started,
            )

        root_list = _root_list(options, query_set)

        engine = self._engine()

        # Line 1: one BFS per candidate root (cached by the engine, shared
        # across every query that mentions the root).
        for root in root_list:
            unreachable = engine.unreachable_queries(root, query_set)
            if unreachable:
                raise DisconnectedGraphError(
                    f"query vertices {sorted(map(repr, unreachable))} "
                    f"unreachable from root {root!r}"
                )

        grid = (
            list(options.lambda_values)
            if options.lambda_values is not None
            else _lambda_grid(self.num_nodes, options.beta)
        )

        prune = options.prune and options.method == "ws-q"
        # Integer bounds from the exact root tables the reachability loop
        # above just forced — free of extra traversals.
        bounds = (
            _sweep_root_bounds(engine, root_list, query_set, options)
            if prune
            else {}
        )

        best_key: float = math.inf
        best_nodes: frozenset | None = None
        best_root = None
        best_lambda: float | None = None
        scored: dict[frozenset, float] = {}
        pruned_roots: set = set()
        batches: dict = {}
        pairs_pruned = pairs_scored = 0

        for lam_i, lam in enumerate(grid):
            for root in root_list:
                if prune:
                    if root in pruned_roots:
                        pairs_pruned += 1
                        continue
                    if lam_i == 0 and bounds[root] > best_key:
                        # Decided once, at the root's first canonical
                        # encounter; the bound is λ-independent.
                        pruned_roots.add(root)
                        pairs_pruned += 1
                        continue
                per_lam = batches.get(root)
                if per_lam is None:
                    per_lam = self._candidates_for_root(
                        engine, root, grid, query_set, options.adjust
                    )
                    batches[root] = per_lam
                candidate = per_lam[lam_i]
                if candidate in scored:
                    pairs_scored += 1
                    continue
                if prune:
                    # Checked *before* the score-cache lookup so warm and
                    # cold sweeps prune (and count) identically.
                    floor = self._score_bound(engine, candidate, root, options)
                    if floor > best_key:
                        # Sentinel entry: later (root, λ) encounters of
                        # this candidate dedup against it, and the trace
                        # still counts the candidate as materialized.
                        scored[candidate] = float(floor)
                        pairs_pruned += 1
                        continue
                pairs_scored += 1
                key = self._score_candidate(engine, candidate, root, options)
                scored[candidate] = key
                if key < best_key:
                    best_key = key
                    best_nodes = candidate
                    best_root = root
                    best_lambda = lam

        # The first (λ, root) pair is never pruned (no finite bound
        # exceeds an infinite incumbent), so a winner always exists.
        assert best_nodes is not None
        self._pairs_pruned += pairs_pruned
        self._pairs_scored += pairs_scored
        return SweepOutcome(
            nodes=best_nodes,
            root=best_root,
            lam=best_lambda,
            candidates=len(scored),
            key=best_key,
            runtime_seconds=time.perf_counter() - started,
        )

    def _candidates_for_root(
        self, engine, root, grid: list, query_set, adjust: bool
    ) -> list:
        """All of one root's grid candidates, batch-built through the LRU.

        Grid positions already cached are honored entry by entry; only
        the missing λ values go to the engine's batch constructor (which
        produces the same frozensets an isolated per-λ call would), so a
        warm service never rebuilds what it has while a cold one pays a
        single shared pass per root.
        """
        per_lam: list = [None] * len(grid)
        missing: list[int] = []
        for i, lam in enumerate(grid):
            cached = self._candidates.get((root, lam, query_set, adjust))
            if cached is not None:
                per_lam[i] = cached
            else:
                missing.append(i)
        if missing:
            built = engine.candidates_for_root(
                root, [grid[i] for i in missing], query_set, adjust
            )
            for i, candidate in zip(missing, built):
                per_lam[i] = candidate
                self._candidates.put((root, grid[i], query_set, adjust), candidate)
        return per_lam

    def _score_bound(
        self, engine, nodes: frozenset, root, options: SolveOptions
    ) -> int:
        """Certified integer floor on a known candidate's key (see
        :func:`repro.core.pruning.candidate_bound`)."""
        node_list = list(nodes)
        distances = engine.host_distances(root, node_list)
        selection = options.selection
        use_exact = selection == "wiener" or (
            selection in ("auto", "sampled")
            and len(nodes) <= options.exact_threshold
        )
        induced_edges = engine.induced_edge_count(nodes) if use_exact else 0
        return candidate_bound(
            selection,
            options.exact_threshold,
            len(nodes),
            distances,
            induced_edges,
        )

    def _score_candidate(
        self, engine, nodes: frozenset, root, options: SolveOptions
    ) -> float:
        """Score per the selection policy, caching root-independent kinds.

        Exact and sampled scores depend only on the candidate set (the
        sampled estimator is deterministically seeded), so they are cached
        across roots, λ values, *and* queries; the proxy ``A(H, r)`` is
        root-dependent and cheap, so it is computed directly.
        """
        selection = options.selection
        use_exact = selection == "wiener" or (
            selection in ("auto", "sampled")
            and len(nodes) <= options.exact_threshold
        )
        if use_exact:
            score_key = ("exact", nodes)
        elif selection == "sampled":
            score_key = (
                "sampled", nodes, options.sample_sources, options.sample_seed
            )
        else:
            return engine.score_proxy(nodes, root)
        cached = self._scores.get(score_key)
        if cached is not None:
            return cached
        value = _score(
            engine,
            nodes,
            root,
            selection,
            exact_threshold=options.exact_threshold,
            sample_sources=options.sample_sources,
            sample_seed=options.sample_seed,
        )
        self._scores.put(score_key, value)
        return value

    # ------------------------------------------------------------------
    # Public solving API
    # ------------------------------------------------------------------
    def solve(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> ConnectorResult:
        """Solve one query; repeated ``(query, options)`` pairs hit cache.

        Non-``ws-q`` methods (``options.method``) are dispatched through
        the uniform :data:`repro.baselines.METHODS` registry and cached
        the same way.

        Cache hits return the *same* :class:`ConnectorResult` object
        (standard memoization semantics, and what makes repeats
        bit-identical for free) — treat ``result.metadata`` as read-only,
        since mutating it would alter every later response for the query.
        """
        opts = self._merge(options)
        if self.graph is None and opts.method != "ws-q":
            raise GraphError(
                f"method {opts.method!r} needs the original graph; a "
                "service built from bare CSR arrays serves ws-q only"
            )
        query_set = frozenset(query)
        result_key = (query_set, opts)
        cached = self._results.get(result_key)
        if cached is not None:
            self._queries_served += 1
            return cached
        if opts.method == "ws-q":
            solved = self._solve_ws(query_set, opts)
            result = self._to_result(query_set, solved)
        else:
            from repro.baselines import METHODS

            try:
                method = METHODS[opts.method]
            except KeyError:
                raise ValueError(
                    f"unknown method {opts.method!r}; "
                    f"choose from {sorted(METHODS)}"
                ) from None
            result = method.solve(self.graph, query_set, opts)
        self._results.put(result_key, result)
        self._queries_served += 1
        return result

    def sweep(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> SweepOutcome:
        """Run one λ×root sweep and return its picklable outcome.

        This is the *shard-side worker API*: unlike :meth:`solve` it works
        on a graph-less (bare-CSR) service, so a shard worker process can
        serve it, and the graph-holding router turns the outcome into a
        :class:`ConnectorResult`.  Outcomes are cached in the result LRU
        under a ``("sweep", query, options)`` key — disjoint from
        :meth:`solve` keys — so warm re-asks of a shard are answered
        without recomputation, bit-identically.
        """
        opts = self._merge(options)
        query_set = frozenset(query)
        cache_key = ("sweep", query_set, opts)
        cached = self._results.get(cache_key)
        if cached is not None:
            self._queries_served += 1
            return cached
        outcome = self._solve_ws(query_set, opts)
        self._results.put(cache_key, outcome)
        self._queries_served += 1
        return outcome

    def solve_many(
        self,
        queries: Iterable[Iterable[Node]],
        options: SolveOptions | None = None,
    ) -> list[ConnectorResult]:
        """Solve a batch of queries; returns results in input order.

        The batch flows through :meth:`solve`, so the engine's root BFS
        cache deduplicates shared roots across queries.  Each distinct
        query set is solved once per call, in input order, and its repeats
        are answered from a batch-local map — so repeated queries are free
        even when the result LRU is smaller than the batch.  A repeat
        counts as a result-cache hit, as it would with a large cache.
        """
        opts = self._merge(options)
        batch: dict[frozenset, ConnectorResult] = {}
        results = []
        for query in queries:
            query_set = frozenset(query)
            result = batch.get(query_set)
            if result is None:
                result = batch[query_set] = self.solve(query_set, opts)
            else:
                self._results.hits += 1
                self._queries_served += 1
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Shard-replica seeding (array shipping)
    # ------------------------------------------------------------------
    def worker_payload(
        self,
        options: SolveOptions | None = None,
        *,
        cache_limits: dict | None = None,
    ) -> dict:
        """The picklable seed of a worker-side replica of this service.

        That is the two CSR int arrays plus the label list — orders of
        magnitude less pickling than the dict-of-sets ``Graph``.
        ``cache_limits`` forwards ``max_cached_*`` constructor bounds to the
        replica, so a sharded deployment can pin every shard's memory
        footprint.

        Feed the payload to :func:`service_from_payload` in the worker.
        """
        opts = self._merge(options)
        csr = self._engine().csr
        return {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "node_of": csr.node_of,
            "options": opts,
            "limits": dict(cache_limits) if cache_limits else {},
            # The graph version the payload captures: a replica built from
            # it starts at this epoch, so a respawn after deltas reports
            # the right version in the mutate/handshake protocol.
            "epoch": self.epoch,
        }

    def _to_result(
        self, query_set: frozenset, solved: SweepOutcome, extra: dict | None = None
    ) -> ConnectorResult:
        metadata = {
            "root": solved.root,
            "lambda": solved.lam,
            "candidates": solved.candidates,
            "runtime_seconds": solved.runtime_seconds,
        }
        if extra:
            metadata.update(extra)
        return ConnectorResult(
            host=self.graph if self.graph is not None
            else self._induced_host(solved.nodes),
            nodes=solved.nodes,
            query=query_set,
            method="ws-q",
            metadata=metadata,
        )

    def _induced_host(self, nodes: frozenset) -> Graph:
        """A dict host for results of a graph-less (bare-CSR) service.

        ``ConnectorResult`` uses its host only through
        ``host.subgraph(result.nodes)`` (Wiener index and density of the
        connector), and the induced subgraph of an already-induced host is
        itself — so materializing just ``G[S]`` from the CSR arrays gives
        bit-identical derived metrics without ever building the full dict
        graph.  Connectors are small (tens of vertices), so this stays
        cheap even on a 10^6-node instance.
        """
        csr = self._engine().csr
        return csr.induced(csr.indices_for(nodes)).to_graph()

    # ------------------------------------------------------------------
    # Mutation: versioned epochs + scoped invalidation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The graph version this service serves (0 until the first delta)."""
        return self._versioned.epoch

    def deltas_since(self, epoch: int):
        """Catch-up deltas from ``epoch`` to now (``None`` = unrecoverable).

        The negotiation primitive of the reconnect handshake: a replica
        that was down across some epochs reports its last known epoch and
        replays this suffix instead of resyncing a full graph payload.
        """
        return self._versioned.deltas_since(epoch)

    def align_epoch(self, epoch: int) -> None:
        """Adopt a peer's epoch numbering for this (digest-verified) graph.

        Shard hosts call this when a router's ``hello`` digest matches
        but its epoch count does not (the daemon was restarted with the
        already-mutated dataset and began counting from 0 again).  Pure
        renumbering — graph and caches untouched.
        """
        self._versioned.align(epoch)

    def apply_delta(self, delta: GraphDelta) -> int:
        """Mutate the graph to the next epoch; returns the new epoch number.

        All-or-nothing: an inapplicable delta raises
        :class:`~repro.errors.DeltaError` with the graph, the caches, and
        the epoch untouched.

        On success the caches are **scope-invalidated**, not dropped: a
        reachability-invariance pass over the delta decides, per cached
        entry, whether the touched edges can reach the entry's answer.

        * **root-BFS entries** survive when every delta edge provably
          preserves that root's distances and canonical parents — see
          :meth:`CSRWienerSteinerEngine.apply_delta` for the exact rules;
        * **score entries** survive unless a delta edge has *both*
          endpoints inside the scored candidate set (exact and sampled
          scores are pure functions of the induced subgraph ``G[S]``,
          which only such an edge can change);
        * **candidate and result entries** are always evicted: every edge
          of the host graph participates in the Lemma-4 reweighted
          instance ``G_{r,λ}``, so any edge change can reach them.

        ``entries_retained`` / ``entries_invalidated`` in :meth:`stats`
        accumulate the outcome, and the epoch bump invalidates the
        handshake digest — remote peers must renegotiate before their
        next sweep is accepted.
        """
        if not isinstance(delta, GraphDelta):
            raise DeltaError(
                f"apply_delta takes a GraphDelta, got {type(delta).__name__}"
            )
        # Reject before analysis: the retention pass below fixes cached
        # entries up in place, which must not happen for a delta that the
        # version index would then refuse.
        if delta.reweights:
            raise DeltaError(
                "reweight ops need a weighted graph; the serving host "
                "graph is unweighted"
            )
        if self.graph is not None:
            delta._check_applicable(self.graph.has_edge)
        else:
            delta._check_applicable(
                lambda u, v: csr_has_edge(self._versioned.csr, u, v)
            )
        touched = delta.touched_edges()

        epoch = self._versioned.apply(delta)
        # The landmark index is a whole-graph structure; when the service
        # owns one, rebuild it *now* rather than lazily — shard replicas
        # apply deltas off the query path, so an eager rebuild keeps the
        # first post-mutate sweep from paying k BFS/Dijkstra passes.
        self._landmark_index = None
        if self._landmark_count is not None:
            self._build_landmark_index()

        retained = invalidated = 0
        if self._solver is not None:
            retained, invalidated = self._solver.apply_delta(
                delta, self._versioned.csr
            )
        # Most scored sets hold no touched endpoint at all; the C-level
        # disjointness test settles those without the per-edge scan.
        touched_nodes = delta.touched_nodes()
        for key in self._scores.keys():
            nodes = key[1]
            if not nodes.isdisjoint(touched_nodes) and any(
                u in nodes and v in nodes for u, v in touched
            ):
                self._scores.pop(key)
                invalidated += 1
            else:
                retained += 1
        invalidated += self._candidates.clear()
        invalidated += self._results.clear()
        self._entries_retained += retained
        self._entries_invalidated += invalidated
        return epoch

    # ------------------------------------------------------------------
    # Observability / extras
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A snapshot of the cache layers (serving observability)."""
        cached_roots = self._solver.cached_roots if self._solver is not None else 0
        return ServiceStats(
            queries_served=self._queries_served,
            result_hits=self._results.hits,
            result_misses=self._results.misses,
            candidate_hits=self._candidates.hits,
            candidate_misses=self._candidates.misses,
            score_hits=self._scores.hits,
            score_misses=self._scores.misses,
            cached_roots=cached_roots,
            result_cache_size=len(self._results),
            candidate_cache_size=len(self._candidates),
            score_cache_size=len(self._scores),
            uptime_seconds=time.monotonic() - self._created,
            epoch=self._versioned.epoch,
            entries_invalidated=self._entries_invalidated,
            entries_retained=self._entries_retained,
            pairs_pruned=self._pairs_pruned,
            pairs_scored=self._pairs_scored,
            landmark_rebuilds=self._landmark_rebuilds,
        )

    @property
    def landmark_index(self):
        """The service's shared :class:`LandmarkIndex` (or ``None``).

        Built lazily on first access when the service was constructed
        with ``landmarks=k`` — one set of landmark BFS tables serves
        every approximate-distance consumer for the life of the service
        (the ROADMAP's "landmark reuse across queries" item).
        """
        if self._landmark_count is None:
            return None
        if self._landmark_index is None:
            self._build_landmark_index()
        return self._landmark_index

    def _build_landmark_index(self) -> None:
        """(Re)build the shared landmark index and count the rebuild."""
        from repro.graphs.landmarks import LandmarkIndex

        # The tables run on the service's shared arrays (a bare-CSR shard
        # replica has no other graph form); the engine adopts the same ones.
        self._landmark_index = LandmarkIndex(
            self.graph, num_landmarks=self._landmark_count, csr=self._versioned.csr
        )
        self._landmark_rebuilds += 1

    def estimate_distance(self, u: Node, v: Node) -> float:
        """Landmark upper bound on ``d_G(u, v)`` (requires ``landmarks=``)."""
        index = self.landmark_index
        if index is None:
            raise GraphError(
                "construct the service with landmarks=k to enable estimates"
            )
        return index.estimate(u, v)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release nothing — an in-process service holds no processes.

        Exists so every serving layer shares one lifecycle surface:
        callers (the CLI, benchmarks, the gateway server) can write
        ``with service:`` / ``service.close()`` without caring whether the
        service is this in-process one or the sharded one whose
        :meth:`~repro.core.sharded.ShardedConnectorService.close` reaps
        real shard processes.
        """

    def __enter__(self) -> "ConnectorService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{type(self).__name__}(|V|={self.num_nodes}, "
            f"served={self._queries_served})"
        )


def _root_list(options: SolveOptions, query_set: frozenset) -> list:
    """The canonical root-candidate list of one sweep.

    Shared by the service sweep and the dict oracle in
    :mod:`repro.core.reference` so the two can never diverge on root
    handling (order, dedup, the Lemma-5 default of the query set itself) —
    divergence here silently breaks the bit-identity contract between them.
    """
    roots = (
        list(dict.fromkeys(options.roots))
        if options.roots is not None
        else sorted(query_set, key=repr)
    )
    if not roots:
        raise InvalidQueryError("root candidate list must be non-empty")
    return roots


def _sweep_root_bounds(
    engine, root_list: list, query_set: frozenset, options: SolveOptions
) -> dict:
    """Per-root certified score floors for one sweep (see :mod:`repro.core.pruning`).

    Built from the exact per-root distance tables the sweep's
    reachability check has already forced, restricted to the query
    vertices — O(|roots| · |Q|) dictionary lookups, no new traversals.
    Every quantity is an integer derived deterministically from
    ``(graph, query, options)``, so all serving paths (warm or cold
    caches, any shard replica) compute identical bounds and
    hence make identical pruning decisions.
    """
    query = sorted(query_set, key=repr)
    dist_to_q = {
        r: dict(zip(query, engine.host_distances(r, query)))
        for r in dict.fromkeys(root_list)
    }
    # One (distance_sum, |Q ∪ {r'}|) floor per potential *scoring* root:
    # candidate dedup means a pruned root's candidate may be scored by any
    # other root, so proxy bounds must hold under all of them.
    scorer_floors = [
        (
            sum(d for q, d in dist_to_q[r].items() if q != r),
            len(query_set) + (0 if r in query_set else 1),
        )
        for r in root_list
    ]

    def lower(u, v) -> int:
        # Certified lower bound on d_G(u, v) for query vertices: exact
        # when either endpoint has a forced table (always true for the
        # Lemma-5 default roots = Q), else the best landmark-style
        # triangle gap through the root tables, floored at 1.
        if u == v:
            return 0
        if u in dist_to_q:
            return dist_to_q[u][v]
        if v in dist_to_q:
            return dist_to_q[v][u]
        gap = max(abs(t[u] - t[v]) for t in dist_to_q.values())
        return max(gap, 1)

    q_pair_sum = 0
    for i, u in enumerate(query):
        for v in query[i + 1:]:
            q_pair_sum += lower(u, v)

    bounds: dict = {}
    for r in root_list:
        dmap = dist_to_q[r]
        eccentricity = max(dmap.values())
        if r in query_set:
            num_terminals = len(query_set)
            pair_sum = q_pair_sum
        else:
            num_terminals = len(query_set) + 1
            pair_sum = q_pair_sum + sum(dmap.values())
        min_size = max(num_terminals, eccentricity + 1)
        bounds[r] = root_bound(
            options.selection,
            options.exact_threshold,
            min_size,
            eccentricity,
            pair_sum,
            num_terminals,
            scorer_floors,
        )
    return bounds


def service_from_payload(payload: dict) -> ConnectorService:
    """Rebuild a worker-side :class:`ConnectorService` from a payload.

    The inverse of :meth:`ConnectorService.worker_payload` — this is the
    whole picklable worker API: a graph-less service sharing the router's
    int arrays (it can :meth:`~ConnectorService.sweep` but not build
    results).  Used by the persistent shard processes of
    :mod:`repro.core.sharded`.
    """
    limits = payload.get("limits") or {}
    epoch = payload.get("epoch", 0)
    csr = CSRGraph(payload["indptr"], payload["indices"], payload["node_of"])
    return ConnectorService(
        csr=csr, options=payload["options"], epoch=epoch, **limits
    )
