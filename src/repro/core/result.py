"""Result container shared by the connector algorithms and baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.graphs.graph import Graph, Node
from repro.graphs.metrics import density as graph_density
from repro.graphs.wiener import wiener_index


@dataclass(frozen=True)
class ConnectorResult:
    """A connector returned by any of the algorithms.

    The solution is identified by its vertex set; following the paper
    (Section 2, "we may restrict the search to vertex sets and their
    corresponding induced subgraphs"), the subgraph is always the induced
    one.

    Attributes
    ----------
    host:
        The input graph ``G``.
    nodes:
        The vertex set ``S`` of the solution (``Q ⊆ S``).
    query:
        The query set ``Q``.
    method:
        Short method tag: ``"ws-q"``, ``"st"``, ``"ppr"``, ``"cps"``,
        ``"ctp"``, ``"exact"``, ...
    metadata:
        Algorithm-specific extras (chosen root, λ, iteration counts, ...).
    """

    host: Graph
    nodes: frozenset[Node]
    query: frozenset[Node]
    method: str = ""
    metadata: dict = field(default_factory=dict, compare=False)

    #: ``cached_property`` values recomputable from ``host`` + ``nodes``;
    #: stripped from pickles so a result crossing a process boundary
    #: never drags a materialized subgraph along.  They repopulate lazily
    #: on first access after unpickling, bit-identically.
    _DERIVED = ("subgraph", "wiener_index", "density")

    def __post_init__(self) -> None:
        if not self.query <= self.nodes:
            missing = set(self.query) - set(self.nodes)
            raise ValueError(f"solution drops query vertices: {sorted(map(repr, missing))}")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @cached_property
    def subgraph(self) -> Graph:
        """The induced subgraph ``G[S]``."""
        return self.host.subgraph(self.nodes)

    @cached_property
    def wiener_index(self) -> float:
        """``W(G[S])`` — infinite if the solution is disconnected."""
        return wiener_index(self.subgraph)

    @property
    def size(self) -> int:
        """Number of vertices ``|V(H)|``."""
        return len(self.nodes)

    @property
    def num_added(self) -> int:
        """Number of non-query vertices the method added."""
        return len(self.nodes) - len(self.query)

    @property
    def added_nodes(self) -> frozenset[Node]:
        """The non-query vertices in the solution."""
        return self.nodes - self.query

    @cached_property
    def density(self) -> float:
        """Density ``|E(H)| / C(|V(H)|, 2)`` of the solution."""
        return graph_density(self.subgraph)

    def summary(self) -> str:
        """One-line human-readable description."""
        w = self.wiener_index
        w_text = f"{w:.0f}" if w != float("inf") else "inf"
        return (
            f"{self.method or 'connector'}: |V(H)|={self.size} "
            f"(+{self.num_added} over |Q|={len(self.query)}), "
            f"density={self.density:.3f}, W={w_text}"
        )
