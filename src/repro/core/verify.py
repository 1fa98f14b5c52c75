"""Fault-tolerance verifiers, for vertex and edge faults alike.

``H`` is an r-fault-tolerant k-spanner of ``G`` when, for every fault set
``F`` with ``|F| <= r``, ``H \\ F`` is a k-spanner of ``G \\ F``. ``F``
holds vertices (the paper's model) or edges (Theorem 2.3's sampling
model). As the paper notes after its equation (1), host edges suffice:
that holds iff every host edge ``(u, v)`` surviving ``F`` has
``d_{H\\F}(u, v) <= k * w(u, v)``. The criterion is exact in both
directions and for both kinds. A violating edge also violates the
all-pairs condition, because ``d_{G\\F}(u, v) <= w(u, v)``. Conversely, a
shortest path of ``G \\ F`` is a chain of surviving host edges, and their
per-edge bounds add up to ``k * d_{G\\F}`` for its endpoints. Every check
allows a relative slack of ``1e-9``.

Three verification regimes, matching how the experiments use them:

* :func:`is_fault_tolerant_spanner` — *exhaustive*: enumerate every fault
  set ``F`` with ``|F| <= r``. Exact but exponential in ``r``; used on
  small instances (E3) and in tests.
* :func:`sampled_fault_check` — *Monte Carlo*: random fault sets; used on
  instances where enumeration is infeasible.
* :func:`is_ft_2spanner` — *exact and polynomial* for the ``k = 2``
  unit-length case, via the paper's Lemma 3.1: ``H`` is an r-fault-tolerant
  2-spanner iff every host edge is kept or covered by ``r + 1`` length-2
  paths. The same verdict holds for edge faults. This is the verifier
  behind the Section 3 rounding loop.

The first two take the fault kind as ``kind=`` (``"vertex"`` by default,
or ``"edge"``) and are shells over one driver, :func:`_first_violation`.
Each fault set is checked in one of two ways, with identical verdicts.
With the compiled backend and undirected graphs,
:class:`_CompiledFaultCheck` runs the per-edge criterion: one bounded
bidirectional search in C per surviving host edge, on the spanner's
cached CSR snapshot with the fault set applied as ``+inf`` weights.
Otherwise the dict reference in :func:`_spanner_holds_after_faults`
copies ``G \\ F`` and ``H \\ F`` and runs Dijkstra from every vertex.
A host vertex the spanner lacks is unreachable in ``H \\ F``: any
surviving host edge at it fails the check.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..compiled import compiled_available
from ..compiled.pairs import pairs_within
from ..errors import FaultToleranceError
from ..graph.csr import CSRGraph, snapshot
from ..graph.graph import BaseGraph
from ..graph.paths import dijkstra
from ..graph.scenario import scenario_fault_sets
from ..rng import RandomLike, ensure_rng

Vertex = Hashable

#: Relative slack of every fault-set check (float noise in path sums).
_SLACK = 1 + 1e-9


def fault_sets(vertices: Sequence[Vertex], r: int) -> Iterator[Tuple[Vertex, ...]]:
    """Enumerate every fault set of size at most ``r`` (including empty).

    The count is ``sum_{i<=r} C(n, i)``; callers are expected to keep
    ``n`` and ``r`` small.
    """
    vertices = list(vertices)
    for size in range(min(r, len(vertices)) + 1):
        yield from itertools.combinations(vertices, size)


def count_fault_sets(n: int, r: int) -> int:
    """Number of fault sets of size at most ``r`` over ``n`` units.

    The units are vertices for vertex faults and edges for edge faults.
    """
    return sum(math.comb(n, i) for i in range(min(r, n) + 1))


def _edge_id_or_none(csr: CSRGraph, u: Vertex, v: Vertex) -> Optional[int]:
    try:
        return csr.edge_id(u, v)
    except KeyError:
        return None


class _CompiledFaultCheck:
    """The per-edge criterion for one (spanner, host) pair, run in C.

    Built once per verifier call: the spanner's CSR arrays, and every host
    edge as a query ``(u, v, k * w(u, v) * (1 + 1e-9))`` in spanner
    indices. A fault set then costs one masked weight vector of the
    spanner snapshot and one :func:`repro.compiled.pairs.pairs_within`
    call over the host edges that survive it. Both graphs must be
    undirected.
    """

    def __init__(self, spanner: BaseGraph, graph: BaseGraph, k: float):
        self.span = span = snapshot(spanner)
        self.host = host = snapshot(graph)
        indptr, nbr, wt, _eid, _deg = span.half_arrays_np()
        self._indptr = indptr
        self._nbr = nbr.astype(np.int64)
        self._wt = wt
        to_span = np.fromiter(
            (span.index.get(v, -1) for v in host.verts),
            dtype=np.int64, count=host.num_vertices,
        )
        self._host_u, self._host_v = host.endpoints_np()
        self._qu = to_span[self._host_u]
        self._qv = to_span[self._host_v]
        self._bound = (k * np.asarray(host.edge_w, dtype=np.float64)) * _SLACK
        # Host edges at a vertex the spanner lacks: unreachable in H \ F.
        self._missing = (self._qu < 0) | (self._qv < 0)

    def vertex_faults(self, faults: Iterable[Vertex]) -> bool:
        """Whether ``H \\ F`` is a k-spanner of ``G \\ F`` (vertex faults)."""
        host, span = self.host, self.span
        host_alive = np.ones(host.num_vertices, dtype=bool)
        span_alive = None
        for f in faults:
            i = host.index.get(f)
            if i is not None:
                host_alive[i] = False
            j = span.index.get(f)
            if j is not None:
                if span_alive is None:
                    span_alive = np.ones(span.num_vertices, dtype=bool)
                span_alive[j] = False
        live = host_alive[self._host_u] & host_alive[self._host_v]
        return self._holds(live, span.survivor_view(span_alive))

    def edge_faults(self, faults: Iterable[Tuple[Vertex, Vertex]]) -> bool:
        """Whether ``H - F`` is a k-spanner of ``G - F`` (edge faults).

        Faulted edges the spanner (or the host) lacks are ignored.
        """
        host, span = self.host, self.span
        live = np.ones(host.num_edges, dtype=bool)
        span_edge_alive = None
        for u, v in faults:
            e = _edge_id_or_none(host, u, v)
            if e is not None:
                live[e] = False
            e = _edge_id_or_none(span, u, v)
            if e is not None:
                if span_edge_alive is None:
                    span_edge_alive = np.ones(span.num_edges, dtype=bool)
                span_edge_alive[e] = False
        return self._holds(live, span.survivor_view(edge_alive=span_edge_alive))

    def _holds(self, live, view) -> bool:
        if (self._missing & live).any():
            return False
        wt = view.masked_weights()
        ok = pairs_within(
            self._indptr, self._nbr, self._wt if wt is None else wt,
            self._qu[live], self._qv[live], self._bound[live],
        )
        return bool(ok.all())


def _compiled_check(
    spanner: BaseGraph, graph: BaseGraph, k: float
) -> Optional[_CompiledFaultCheck]:
    """The compiled per-edge check, or ``None`` where the dict reference runs.

    ``None`` for digraphs and when the compiled backend is unavailable.
    """
    if spanner.directed or graph.directed or not compiled_available():
        return None
    return _CompiledFaultCheck(spanner, graph, k)


def _fault_units(graph: BaseGraph, kind: str) -> list:
    """The units fault sets of ``kind`` draw from, in host order.

    Vertices in ``vertices()`` order, or ``(u, v)`` pairs in ``edges()``
    order (the host snapshot's edge-id order).
    """
    if kind == "vertex":
        return list(graph.vertices())
    if kind == "edge":
        return [(u, v) for u, v, _w in graph.edges()]
    raise FaultToleranceError(
        f"fault kind must be 'vertex' or 'edge', got {kind!r}"
    )


def _without_edges(graph: BaseGraph, faults: Iterable[Tuple]) -> BaseGraph:
    """Copy of ``graph`` with the faulted edges removed.

    Fault keys may be given in either orientation for undirected graphs;
    on digraphs only the named arc goes.
    """
    out = graph.copy()
    for (u, v) in faults:
        if out.has_edge(u, v):
            out.remove_edge(u, v)
    return out


def _spanner_holds_after_faults(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    faults: Iterable,
    check: Optional[_CompiledFaultCheck] = None,
    *,
    kind: str = "vertex",
) -> bool:
    """Whether ``H \\ F`` is a k-spanner of ``G \\ F`` for one fault set ``F``.

    ``faults`` holds vertices or, with ``kind="edge"``, ``(u, v)`` edges.
    With ``check`` (from :func:`_compiled_check`) the per-edge criterion
    runs in C. Without it this is the dict reference, where only the
    ``G \\ F`` / ``H \\ F`` copy depends on the kind: for every surviving
    host edge ``(u, v)`` it requires ``d_{H\\F}(u, v) <= k * d_{G\\F}(u, v)``.
    That compares against the post-fault distance instead of ``w(u, v)``,
    yet accepts exactly the same spanners (module docstring).
    """
    if check is not None:
        return (check.vertex_faults if kind == "vertex" else check.edge_faults)(faults)
    if kind == "vertex":
        fault_set = set(faults)
        g_f = graph.without_vertices(fault_set)
        h_f = spanner.without_vertices(fault_set)
    else:
        fault_list = list(faults)
        g_f = _without_edges(graph, fault_list)
        h_f = _without_edges(spanner, fault_list)
    for u in g_f.vertices():
        out = (
            dict(g_f.successor_items(u))
            if g_f.directed
            else dict(g_f.neighbor_items(u))
        )
        if not out:
            continue
        dist_g = dijkstra(g_f, u)
        dist_h = dijkstra(h_f, u) if h_f.has_vertex(u) else {}
        for v in out:
            bound = k * dist_g[v]
            if dist_h.get(v, math.inf) > bound * _SLACK:
                return False
    return True


def _first_violation(
    spanner: BaseGraph, graph: BaseGraph, k: float, r: int, kind: str, *,
    scenarios: Optional[Iterable] = None, trials: Optional[int] = None,
    seed: RandomLike = None,
) -> Optional[tuple]:
    """The first fault set of ``kind`` that ``spanner`` fails, or ``None``.

    The one driver behind every exhaustive and Monte Carlo entry point,
    for both kinds. The candidates are the ``scenarios`` when given;
    else ``trials`` (at least 1) random sets, each a size drawn uniformly
    from ``{0, ..., r}`` (capped at the unit count) and then a uniform
    subset of that size; else every set of at most ``r`` units.
    """
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    if trials is not None and trials < 1:
        raise FaultToleranceError(
            f"trials must be >= 1, got {trials}: no sampled fault set "
            "would be checked"
        )
    units = _fault_units(graph, kind)
    if scenarios is not None:
        candidates: Iterable = scenario_fault_sets(scenarios, kind)
    elif trials is not None:
        rng = ensure_rng(seed)
        candidates = (
            rng.sample(units, rng.randint(0, min(r, len(units))))
            for _ in range(trials if units else 0)
        )
    else:
        candidates = fault_sets(units, r)
    check = _compiled_check(spanner, graph, k)
    for faults in candidates:
        if not _spanner_holds_after_faults(spanner, graph, k, faults, check, kind=kind):
            return tuple(faults)
    return None


def is_fault_tolerant_spanner(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    r: int,
    scenarios: Optional[Iterable] = None,
    *,
    kind: str = "vertex",
) -> bool:
    """Exhaustively verify that ``spanner`` is an r-fault-tolerant k-spanner.

    ``kind`` is ``"vertex"`` or ``"edge"``: the fault sets hold vertices
    or ``(u, v)`` edges. With ``scenarios`` given — a sequence of
    :class:`repro.graph.scenario.FaultScenario` values (kind ``"none"``
    or ``kind``) or raw iterables of vertices or edges — only those fault
    sets are verified (used by targeted tests); otherwise all
    ``sum_{i<=r} C(n, i)`` fault sets over the ``n`` vertices or edges
    are enumerated, so callers must keep that count small.
    """
    return _first_violation(spanner, graph, k, r, kind, scenarios=scenarios) is None


def first_violating_fault_set(
    spanner: BaseGraph, graph: BaseGraph, k: float, r: int
) -> Optional[Tuple[Vertex, ...]]:
    """Return a fault set witnessing non-tolerance, or None if valid."""
    return _first_violation(spanner, graph, k, r, "vertex")


def sampled_fault_check(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    r: int,
    trials: int = 100,
    seed: RandomLike = None,
    *,
    kind: str = "vertex",
) -> bool:
    """Monte Carlo fault-tolerance check over ``trials`` random fault sets.

    Each trial draws a fault-set size uniformly from ``{0, ..., r}`` and
    then a uniform subset of that size, of vertices or, with
    ``kind="edge"``, of edges. A False result is a certified
    counterexample; True is only statistical evidence.
    """
    violation = _first_violation(
        spanner, graph, k, r, kind, trials=trials, seed=seed
    )
    return violation is None


# ---------------------------------------------------------------------------
# Lemma 3.1: exact polynomial verification for k = 2, unit lengths
# ---------------------------------------------------------------------------


def _two_path_count(out_u: set, in_v: set, u: Vertex, v: Vertex) -> int:
    """``|out_u ∩ in_v \\ {u, v}|``: the two-paths ``u -> z -> v``.

    ``out_u`` holds the spanner successors of ``u`` and ``in_v`` the
    predecessors of ``v`` (both neighbour sets when undirected), so each
    midpoint ``z`` in both is one length-2 path: one C-level intersection.
    """
    mids = out_u & in_v
    return len(mids) - (u in mids) - (v in mids)


def count_two_paths(spanner: BaseGraph, u: Vertex, v: Vertex) -> int:
    """Number of length-2 paths from ``u`` to ``v`` inside ``spanner``.

    For digraphs this counts midpoints ``z`` with arcs ``(u, z)`` and
    ``(z, v)``; for undirected graphs, common neighbours of ``u`` and ``v``.
    """
    if not spanner.has_vertex(u) or not spanner.has_vertex(v):
        return 0
    if spanner.directed:
        outs = set(spanner.successors(u))
        ins = set(spanner.predecessors(v))
        mids = outs & ins
    else:
        mids = set(spanner.neighbors(u)) & set(spanner.neighbors(v))
    mids.discard(u)
    mids.discard(v)
    return len(mids)


def edge_satisfied(spanner: BaseGraph, u: Vertex, v: Vertex, r: int) -> bool:
    """Lemma 3.1 per-edge condition: edge kept, or ``r + 1`` two-paths."""
    if spanner.has_edge(u, v):
        return True
    return count_two_paths(spanner, u, v) >= r + 1


def unsatisfied_edges(
    spanner: BaseGraph, graph: BaseGraph, r: int
) -> List[Tuple[Vertex, Vertex]]:
    """Host edges violating the Lemma 3.1 condition in ``spanner``.

    The spanner's neighbourhood sets are materialized once up front, so
    the per-edge two-path count is a single C-level set intersection
    instead of rebuilding both endpoint sets for every host edge.
    """
    need = r + 1
    if spanner.directed:
        outs = {v: set(spanner.successors(v)) for v in spanner.vertices()}
        ins = {v: set(spanner.predecessors(v)) for v in spanner.vertices()}
    else:
        outs = ins = {v: set(spanner.neighbors(v)) for v in spanner.vertices()}
    empty: set = set()
    bad: List[Tuple[Vertex, Vertex]] = []
    for u, v, _w in graph.edges():
        out_u = outs.get(u, empty)
        if v in out_u:
            continue  # edge kept
        mids = out_u & ins.get(v, empty)
        mids.discard(u)
        mids.discard(v)
        if len(mids) < need:
            bad.append((u, v))
    return bad


def is_ft_2spanner(spanner: BaseGraph, graph: BaseGraph, r: int) -> bool:
    """Exact r-fault-tolerant 2-spanner check via Lemma 3.1.

    Assumes unit edge lengths (the Section 3 setting — costs may be
    arbitrary but lengths are 1). Runs in ``O(m · Δ)`` time, polynomial in
    everything, unlike the exhaustive verifier.

    The verdict is the same for *edge* faults: the per-edge condition
    ("kept, or covered by ``r + 1`` two-paths") is exactly the Lemma 3.1
    analogue for ``r`` edge faults. Sufficiency: a host edge only needs
    checking against fault sets that do **not** contain it (otherwise it
    is not an edge of ``G - F``), so a kept edge always survives for the
    fault sets that matter; and two-paths with distinct midpoints are
    pairwise edge-disjoint, so ``r`` edge faults kill at most ``r`` of
    ``r + 1`` of them. Necessity: with at most ``r`` two-paths and the
    edge dropped, faulting one edge of each two-path leaves ``u`` and
    ``v`` without a path of length at most 2. The test suite checks this
    equivalence against the exhaustive edge-fault verifier.
    """
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    return not unsatisfied_edges(spanner, graph, r)


class IncrementalFT2Verifier:
    """Incremental Lemma 3.1 state for spanners *and hosts* that mutate.

    The Section 3 rounding/repair loops repeatedly ask "is the current
    candidate an r-fault-tolerant 2-spanner, and which host edges still
    violate?" while adding edges one at a time. Recomputing
    :func:`unsatisfied_edges` costs O(m · Δ) per call; this structure
    maintains, for every host edge, its kept-flag and its count of
    length-2 spanner paths, and updates them in O(Δ) per
    :meth:`add_edge` — adding spanner edge ``(u, v)`` can only create
    two-paths that use it as one of their two hops, so scanning the
    current neighbourhoods of ``u`` and ``v`` finds every affected pair.
    :meth:`remove_edge` is the exact inverse (the serving layer's damage
    detector), and the ``add_host_* / remove_host_*`` methods mutate the
    *host* side in the same O(Δ) budget, which is what lets
    :class:`repro.serve.SpannerService` keep a live validity verdict
    under an operation stream without ever rescanning the graph.

    The starting state is built in bulk (see :meth:`__init__`). Host
    edge positions live in the host adjacency: ``_host_out[u][v]`` and
    ``_host_in[v][u]`` (one shared map on undirected hosts) hold the
    position of host edge ``(u, v)``. The inner maps hold only vertex
    keys and int positions, so a new host edge puts no large map back
    in the garbage collector's youngest generation.

    On a static host, ``unsatisfied()`` returns violations in host
    ``edges()`` order, matching :func:`unsatisfied_edges` on the
    equivalent static spanner. Once the host mutates, the order is host
    edge *insertion* order (removed edges vanish; a re-added edge moves
    to the end) — still deterministic, and still equal as a set to the
    static recomputation on the equivalent graphs.
    """

    def __init__(self, graph: BaseGraph, r: int, spanner: Optional[BaseGraph] = None):
        """Lemma 3.1 state of ``spanner`` (no spanner edges if omitted).

        Built in bulk: fill the spanner's out/in sets in
        ``spanner.edges()`` order, then read each host edge's kept-flag
        and two-path count from them in one pass (one set intersection
        per edge, as :meth:`add_host_edge` does), and build the
        unsatisfied set from those. A count depends only on the
        adjacency, so this is the state :meth:`add_edge` would grow one
        edge at a time, at O(m · Δ) once. Spanner endpoints must be host
        vertices.
        """
        if r < 0:
            raise FaultToleranceError(f"r must be nonnegative, got {r}")
        self.graph = graph
        self.r = r
        self._need = need = r + 1
        self._directed = directed = graph.directed
        vertices = list(graph.vertices())
        self._out: Dict[Vertex, set] = {v: set() for v in vertices}
        self._in: Dict[Vertex, set] = (
            {v: set() for v in vertices} if directed else self._out
        )
        # Removed host edges leave a tombstone (``_alive[pos] = False``) in
        # the host edge list, so every other position — and with it
        # ``unsatisfied()`` order — is stable.
        self._host_out: Dict[Vertex, Dict[Vertex, int]] = {v: {} for v in vertices}
        self._host_in: Dict[Vertex, Dict[Vertex, int]] = (
            {v: {} for v in vertices} if directed else self._host_out
        )
        out, into = self._out, self._in
        if spanner is not None:
            for u, v, _w in spanner.edges():
                out[u].add(v)
                into[v].add(u)
        host_out, host_in = self._host_out, self._host_in
        host_edges, counts, kept_flags, unsat = [], [], [], []
        for pos, (u, v, _w) in enumerate(graph.edges()):
            host_edges.append((u, v))
            host_out[u][v] = pos
            host_in[v][u] = pos
            out_u = out[u]
            kept = v in out_u
            count = _two_path_count(out_u, into[v], u, v)
            counts.append(count)
            kept_flags.append(kept)
            if not kept and count < need:
                unsat.append(pos)
        self._host_edges: List[Tuple[Vertex, Vertex]] = host_edges
        self._counts, self._kept = counts, kept_flags
        self._alive = [True] * len(host_edges)
        self._num_alive = len(host_edges)
        self._unsat = set(unsat)

    def _position(self, u: Vertex, v: Vertex) -> Optional[int]:
        """Position of live host edge ``(u, v)``, or ``None``."""
        at_u = self._host_out.get(u)
        return None if at_u is None else at_u.get(v)

    def _bump(self, pos: Optional[int]) -> None:
        if pos is None:
            return
        counts = self._counts
        counts[pos] += 1
        if counts[pos] >= self._need:
            self._unsat.discard(pos)

    def _drop(self, pos: Optional[int]) -> None:
        if pos is None:
            return
        counts = self._counts
        counts[pos] -= 1
        if counts[pos] < self._need and not self._kept[pos]:
            self._unsat.add(pos)

    # -- spanner mutations ---------------------------------------------

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add spanner edge/arc ``(u, v)``; no-op if already present.

        Endpoints must be host vertices (a spanner never adds vertices).
        """
        out_u = self._out[u]
        if v in out_u:
            return
        at_u = self._host_out[u]
        pos = at_u.get(v)
        if pos is not None:
            self._kept[pos] = True
            self._unsat.discard(pos)
        into_v = self._host_in[v]
        # New two-paths u -> v -> x (v is the midpoint for host pair (u, x)).
        for x in self._out[v]:
            self._bump(at_u.get(x))
        # New two-paths x -> u -> v (u is the midpoint for host pair (x, v)).
        for x in self._in[u]:
            self._bump(into_v.get(x))
        out_u.add(v)
        self._in[v].add(u)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove spanner edge/arc ``(u, v)`` — the inverse of :meth:`add_edge`.

        Every host pair that used the edge as one hop of a two-path loses
        one path; the pair itself loses its kept-flag. Newly violating
        host edges surface in :meth:`unsatisfied` immediately, which is
        the O(Δ) damage detection the serving layer's repair policy runs
        on.
        """
        out_u = self._out.get(u)
        if out_u is None or v not in out_u:
            raise FaultToleranceError(
                f"({u!r}, {v!r}) is not a spanner edge"
            )
        out_u.discard(v)
        self._in[v].discard(u)
        at_u = self._host_out[u]
        pos = at_u.get(v)
        if pos is not None:
            self._kept[pos] = False
            if self._counts[pos] < self._need:
                self._unsat.add(pos)
        into_v = self._host_in[v]
        # Lost two-paths u -> v -> x and x -> u -> v, mirroring add_edge.
        for x in self._out[v]:
            self._drop(at_u.get(x))
        for x in self._in[u]:
            self._drop(into_v.get(x))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether ``(u, v)`` is currently a spanner edge/arc."""
        out_u = self._out.get(u)
        return out_u is not None and v in out_u

    # -- host mutations ------------------------------------------------

    def add_host_vertex(self, v: Vertex) -> None:
        """Add an (isolated) host vertex; no-op if already present."""
        if v in self._out:
            return
        self._out[v] = set()
        self._host_out[v] = {}
        if self._directed:
            self._in[v] = set()
            self._host_in[v] = {}

    def add_host_edge(self, u: Vertex, v: Vertex) -> None:
        """Register a new host edge/arc; endpoints are added if missing.

        The edge's two-path count is computed once from the current
        spanner neighbourhoods (one set intersection), after which it is
        maintained incrementally like every other host edge. No-op if the
        edge is already live.
        """
        self.add_host_vertex(u)
        self.add_host_vertex(v)
        at_u = self._host_out[u]
        if v in at_u:
            return
        pos = len(self._host_edges)
        self._host_edges.append((u, v))
        at_u[v] = pos
        self._host_in[v][u] = pos
        out_u = self._out[u]
        kept = v in out_u
        count = _two_path_count(out_u, self._in[v], u, v)
        self._counts.append(count)
        self._kept.append(kept)
        self._alive.append(True)
        self._num_alive += 1
        if not kept and count < self._need:
            self._unsat.add(pos)

    def remove_host_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove host edge/arc ``(u, v)``.

        A kept spanner edge is removed first (a spanner is a subgraph of
        its host), so the damage it causes to *other* host pairs is
        accounted before the pair itself stops being a demand.
        """
        pos = self._position(u, v)
        if pos is None:
            raise FaultToleranceError(f"({u!r}, {v!r}) is not a host edge")
        if v in self._out[u]:
            self.remove_edge(u, v)
        del self._host_out[u][v]
        del self._host_in[v][u]
        self._alive[pos] = False
        self._num_alive -= 1
        self._unsat.discard(pos)

    def remove_host_vertex(self, v: Vertex) -> None:
        """Remove a host vertex with all incident host and spanner edges.

        Spanner edges through ``v`` go first (each one's removal updates
        the two-path counts of the pairs it served as a midpoint hop),
        then the incident host edges stop being demands, then the vertex
        itself disappears. O(degree · Δ) total.
        """
        if v not in self._out:
            raise FaultToleranceError(f"{v!r} is not a host vertex")
        for x in list(self._out[v]):
            self.remove_edge(v, x)
        if self._directed:
            for x in list(self._in[v]):
                self.remove_edge(x, v)
        for x in list(self._host_out[v]):
            self.remove_host_edge(v, x)
        if self._directed:
            for x in list(self._host_in[v]):
                self.remove_host_edge(x, v)
        del self._out[v]
        del self._host_out[v]
        if self._directed:
            del self._in[v]
            del self._host_in[v]

    def has_host_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether ``(u, v)`` is currently a live host edge/arc."""
        return self._position(u, v) is not None

    @property
    def num_host_edges(self) -> int:
        """Number of live host edges (tombstones excluded)."""
        return self._num_alive

    def host_edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Live host edges in insertion order (the ``unsatisfied`` order)."""
        alive = self._alive
        return (
            pair
            for pos, pair in enumerate(self._host_edges)
            if alive[pos]
        )

    # -- queries -------------------------------------------------------

    def count_two_paths(self, u: Vertex, v: Vertex) -> int:
        """Current number of length-2 paths for host edge ``(u, v)``."""
        pos = self._position(u, v)
        if pos is None:
            raise FaultToleranceError(f"({u!r}, {v!r}) is not a host edge")
        return self._counts[pos]

    @property
    def num_unsatisfied(self) -> int:
        return len(self._unsat)

    def is_valid(self) -> bool:
        """True iff the accumulated spanner passes Lemma 3.1 for ``r``."""
        return not self._unsat

    def unsatisfied(self) -> List[Tuple[Vertex, Vertex]]:
        """Violating host edges, in host edge insertion order."""
        host = self._host_edges
        return [host[pos] for pos in sorted(self._unsat)]
