"""Core graph data structures.

The library implements its own adjacency-dictionary graphs rather than using
networkx so that the whole stack — spanners, fault-tolerant constructions,
LP builders, and the LOCAL-model simulator — runs on a substrate we control
and can reason about. Vertices are arbitrary hashable objects (the
generators use integers). Each edge carries a single float ``weight``,
interpreted as a *length* by the stretch-k machinery of Section 2 and as a
*cost* by the 2-spanner machinery of Section 3.

:class:`Graph` is undirected and :class:`DiGraph` is directed; both share
the interface defined by :class:`BaseGraph`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Tuple

from ..errors import EdgeNotFound, GraphError, NegativeWeightError, VertexNotFound

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]
WeightedEdge = Tuple[Vertex, Vertex, float]


class BaseGraph:
    """Shared behaviour of :class:`Graph` and :class:`DiGraph`."""

    #: Whether edges are directed. Overridden by subclasses.
    directed: bool = False

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        self._num_edges = 0
        #: Monotone mutation counter. The CSR kernel layer
        #: (:mod:`repro.graph.csr`) snapshots a graph into flat arrays and
        #: caches the snapshot keyed on this counter, so every mutator must
        #: bump it.
        self._version = 0

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------

    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; a no-op if it is already present."""
        if v not in self._adj:
            self._adj[v] = {}
            self._version += 1
            self._added_vertex_hook(v)

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex in ``vertices``."""
        for v in vertices:
            self.add_vertex(v)

    def has_vertex(self, v: Vertex) -> bool:
        """Return True if ``v`` is a vertex of the graph."""
        return v in self._adj

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adj)

    def vertex_set(self) -> set:
        """Return a new set containing all vertices."""
        return set(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of vertices, the paper's ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (each undirected edge counted once)."""
        return self._num_edges

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    # Hooks for DiGraph's predecessor bookkeeping -----------------------

    def _added_vertex_hook(self, v: Vertex) -> None:
        pass

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _require_vertex(self, v: Vertex) -> None:
        if v not in self._adj:
            raise VertexNotFound(v)

    @staticmethod
    def _check_weight(weight: float) -> float:
        weight = float(weight)
        if not weight >= 0:  # also rejects NaN, which compares false
            raise NegativeWeightError(f"edge weight must be nonnegative, got {weight}")
        return weight

    # ------------------------------------------------------------------
    # Interface stubs (implemented by subclasses)
    # ------------------------------------------------------------------

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        raise NotImplementedError

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        raise NotImplementedError

    def edges(self) -> Iterator[WeightedEdge]:
        raise NotImplementedError

    def copy(self) -> "BaseGraph":
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Common derived operations
    # ------------------------------------------------------------------

    def edge_list(self) -> list:
        """Return all weighted edges as a list."""
        return list(self.edges())

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Return the weight of edge ``(u, v)``.

        Raises :class:`EdgeNotFound` if the edge does not exist.
        """
        self._require_vertex(u)
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFound(u, v) from None

    def total_weight(self) -> float:
        """Sum of all edge weights (each undirected edge counted once)."""
        return sum(w for _, _, w in self.edges())

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "BaseGraph":
        """Return the subgraph induced by ``vertices``.

        Vertices not present in the graph are ignored, matching the usual
        mathematical convention for `G[S]` with `S ⊆ V`.

        Vertices (and hence edge enumeration order) are inherited in
        *this* graph's iteration order, not the order of ``vertices`` —
        keeping the result independent of set/hash ordering so that
        seeded algorithms downstream are reproducible across processes.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = type(self)()
        sub.add_vertices(v for v in self._adj if v in keep)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub

    def without_vertices(self, faults: Iterable[Vertex]) -> "BaseGraph":
        """Return ``G \\ F``: the graph with fault set ``faults`` removed.

        This is the central subgraph operation of the paper — every
        fault-tolerance definition quantifies over ``G \\ F``.
        """
        faults = set(faults)
        return self.induced_subgraph(v for v in self._adj if v not in faults)

    def edge_subgraph(self, edges: Iterable[Edge]) -> "BaseGraph":
        """Return the spanning subgraph containing only ``edges``.

        All vertices are retained (a spanner must span every vertex); each
        requested edge must exist in the graph and keeps its weight. The
        result equals adding the edges one by one with :meth:`add_edge`
        (vertex order, each row's order, a repeated edge counted once),
        but the adjacency is written in one pass, as
        :meth:`repro.graph.csr.CSRGraph.materialize_edge_ids` does.
        """
        sub = type(self)()
        sub.add_vertices(self.vertices())
        host, out = self._adj, sub._adj
        into = sub._pred if self.directed else out  # type: ignore[attr-defined]
        count = 0
        for u, v in edges:
            try:
                w = host[u][v]
            except KeyError:
                w = self.weight(u, v)  # raises VertexNotFound / EdgeNotFound
            row = out[u]
            if v not in row:
                count += 1
            row[v] = w
            into[v][u] = w
        sub._num_edges = count
        sub._version += 1
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DiGraph" if self.directed else "Graph"
        return f"<{kind} n={self.num_vertices} m={self.num_edges}>"


class Graph(BaseGraph):
    """An undirected graph with weighted edges.

    Self-loops are rejected (they are meaningless for spanners), and adding
    an existing edge overwrites its weight.
    """

    directed = False

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add undirected edge ``{u, v}`` with the given weight.

        Endpoints are added automatically if missing.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        weight = self._check_weight(weight)
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove undirected edge ``{u, v}``."""
        self._require_vertex(u)
        if v not in self._adj[u]:
            raise EdgeNotFound(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` and all incident edges."""
        self._require_vertex(v)
        for u in list(self._adj[v]):
            self.remove_edge(v, u)
        del self._adj[v]
        self._version += 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True if ``{u, v}`` is an edge."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbours of ``v``."""
        self._require_vertex(v)
        return iter(self._adj[v])

    def neighbor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of ``v``."""
        self._require_vertex(v)
        return iter(self._adj[v].items())

    def degree(self, v: Vertex) -> int:
        """Number of neighbours of ``v``."""
        self._require_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree ``Δ`` over all vertices (0 for the empty graph)."""
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over edges, each exactly once, as ``(u, v, weight)``."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        g = Graph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def to_directed(self) -> "DiGraph":
        """Return the directed version: each edge becomes two arcs."""
        d = DiGraph()
        d.add_vertices(self.vertices())
        for u, v, w in self.edges():
            d.add_edge(u, v, w)
            d.add_edge(v, u, w)
        return d


class DiGraph(BaseGraph):
    """A directed graph with weighted arcs.

    Maintains both successor and predecessor adjacency so that the
    2-spanner machinery can enumerate in/out neighbourhoods in O(degree).
    """

    directed = True

    def __init__(self) -> None:
        super().__init__()
        self._pred: Dict[Vertex, Dict[Vertex, float]] = {}

    def _added_vertex_hook(self, v: Vertex) -> None:
        self._pred.setdefault(v, {})

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add arc ``(u, v)`` with the given weight."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        weight = self._check_weight(weight)
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._pred[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove arc ``(u, v)``."""
        self._require_vertex(u)
        if v not in self._adj[u]:
            raise EdgeNotFound(u, v)
        del self._adj[u][v]
        del self._pred[v][u]
        self._num_edges -= 1
        self._version += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` and all incident arcs."""
        self._require_vertex(v)
        for u in list(self._adj[v]):
            self.remove_edge(v, u)
        for u in list(self._pred[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        del self._pred[v]
        self._version += 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True if arc ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def successors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over out-neighbours ``N+(v)``."""
        self._require_vertex(v)
        return iter(self._adj[v])

    def predecessors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over in-neighbours ``N-(v)``."""
        self._require_vertex(v)
        return iter(self._pred[v])

    # ``neighbors`` on a digraph means successors, matching networkx.
    neighbors = successors

    def successor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(out-neighbour, weight)`` pairs."""
        self._require_vertex(v)
        return iter(self._adj[v].items())

    def predecessor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(in-neighbour, weight)`` pairs."""
        self._require_vertex(v)
        return iter(self._pred[v].items())

    def out_degree(self, v: Vertex) -> int:
        """Number of out-neighbours of ``v``."""
        self._require_vertex(v)
        return len(self._adj[v])

    def in_degree(self, v: Vertex) -> int:
        """Number of in-neighbours of ``v``."""
        self._require_vertex(v)
        return len(self._pred[v])

    def max_degree(self) -> int:
        """Max over vertices of max(in-degree, out-degree), the paper's ``Δ``."""
        best = 0
        for v in self._adj:
            best = max(best, len(self._adj[v]), len(self._pred[v]))
        return best

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over all arcs as ``(u, v, weight)``."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                yield (u, v, w)

    def copy(self) -> "DiGraph":
        """Return an independent copy of this digraph."""
        g = DiGraph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._pred = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        g._num_edges = self._num_edges
        return g

    def reverse(self) -> "DiGraph":
        """Return the digraph with every arc reversed."""
        g = DiGraph()
        g.add_vertices(self.vertices())
        for u, v, w in self.edges():
            g.add_edge(v, u, w)
        return g

    def to_undirected(self) -> Graph:
        """Collapse arcs into undirected edges (min weight wins on conflict)."""
        g = Graph()
        g.add_vertices(self.vertices())
        for u, v, w in self.edges():
            if g.has_edge(u, v):
                g.add_edge(u, v, min(w, g.weight(u, v)))
            else:
                g.add_edge(u, v, w)
        return g
