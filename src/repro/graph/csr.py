"""CSR fast-path kernel layer.

The dict-of-dict :class:`~repro.graph.graph.Graph` is the friendly public
substrate — hashable vertices, O(1) edge updates — but every hot loop in
the reproduction (cutoff Dijkstra inside the greedy spanner, the
``α = Θ(r³ log n)`` oversampling loop of Theorem 2.1, the Lemma 3.1
verifier) pays per-edge hashing and per-iteration graph copies on it.

This module provides an *immutable* compressed-sparse-row snapshot,
:class:`CSRGraph`, plus array-based kernels that run on flat integer
indices:

* cutoff / early-target Dijkstra (:meth:`CSRGraph.dijkstra_idx`),
* labeled multi-source Dijkstra (:meth:`CSRGraph.multi_source_dijkstra_idx`),
  returning nearest-source owner + distance arrays — the Thorup–Zwick
  witness pass,
* hop-distance BFS (:meth:`CSRGraph.bfs_idx`),
* compiled batched SSSP (:class:`SciPyGraphKernels`, SciPy's
  ``csgraph.dijkstra``) for the TZ cluster trees
  ``C(w) = {v : d(w, v) < d(A_{i+1}, v)}``, the oracle bunches, the CLPR
  baseline and the Lemma 3.7 padded-decomposition balls,
* survivor-mask views ``G \\ J`` (:class:`SurvivorView`): a surviving
  edge-id filter for the greedy kernels and an ``inf``-masked weight
  vector for the SciPy ones, each one vectorized O(m) NumPy pass —
  no adjacency dict is rebuilt.

Hot arrays are plain Python lists (CPython element access on lists beats
NumPy scalar indexing inside interpreted loops); endpoint and half-edge
arrays are mirrored into NumPy lazily, on the first call that vectorizes
over them (survivor masking, the compiled kernels). The snapshot is
cached on the source graph keyed by its mutation counter, so repeated
queries — ``all_pairs_distances``, verification
sweeps, spanner stretch checks — build it exactly once.

``graph/paths.py`` dispatches to these kernels transparently; public
signatures and semantics there are unchanged.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _sp_csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import BaseGraph, DiGraph, Graph

Vertex = Hashable

INF = math.inf

#: Below this vertex count the dict algorithms win (snapshot overhead
#: dominates); :func:`maybe_snapshot` returns None and callers fall back.
MIN_DISPATCH_VERTICES = 48


class CSRGraph:
    """Immutable int-indexed CSR snapshot of a :class:`Graph` / :class:`DiGraph`.

    Vertices are mapped to indices ``0..n-1`` in the source graph's
    iteration order (``verts`` / ``index`` are the two translation tables).
    For undirected graphs every edge is stored as two half-edges sharing
    one *edge id*; ``edge_u/edge_v/edge_w`` list each unique edge once, in
    the source graph's ``edges()`` order, so edge ids are stable and can be
    unioned across survivor subsamples as plain integers.
    """

    __slots__ = (
        "directed",
        "verts",
        "index",
        "indptr",
        "nbr",
        "wt",
        "eid",
        "edge_u",
        "edge_v",
        "edge_w",
        "_endpoints_np",
        "_half_np",
        "_sp_kernels",
        "_uv_eid",
    )

    def __init__(self) -> None:
        self.directed: bool = False
        self.verts: List[Vertex] = []
        self.index: Dict[Vertex, int] = {}
        self.indptr: List[int] = [0]
        self.nbr: List[int] = []
        self.wt: List[float] = []
        self.eid: List[int] = []
        self.edge_u: List[int] = []
        self.edge_v: List[int] = []
        self.edge_w: List[float] = []
        self._endpoints_np = None
        self._half_np = None
        self._sp_kernels = None
        #: Lazy ``(u_idx, v_idx) -> edge id`` table (undirected pairs are
        #: normalized) behind :meth:`edge_id`.
        self._uv_eid = None

    # ------------------------------------------------------------------
    # Construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: BaseGraph) -> "CSRGraph":
        """Snapshot ``graph`` into CSR arrays (O(n + m))."""
        snap = cls()
        snap.directed = bool(graph.directed)
        verts = list(graph.vertices())
        index = {v: i for i, v in enumerate(verts)}
        snap.verts = verts
        snap.index = index
        n = len(verts)

        edge_u: List[int] = []
        edge_v: List[int] = []
        edge_w: List[float] = []
        deg = [0] * n
        for u, v, w in graph.edges():
            ui = index[u]
            vi = index[v]
            edge_u.append(ui)
            edge_v.append(vi)
            edge_w.append(w)
            deg[ui] += 1
            if not snap.directed:
                deg[vi] += 1
        snap.edge_u = edge_u
        snap.edge_v = edge_v
        snap.edge_w = edge_w

        indptr = [0] * (n + 1)
        for i in range(n):
            indptr[i + 1] = indptr[i] + deg[i]
        m_half = indptr[n]
        nbr = [0] * m_half
        wt = [0.0] * m_half
        eid = [0] * m_half
        cursor = indptr[:n]  # per-vertex fill position
        for e, (ui, vi) in enumerate(zip(edge_u, edge_v)):
            w = edge_w[e]
            c = cursor[ui]
            nbr[c] = vi
            wt[c] = w
            eid[c] = e
            cursor[ui] = c + 1
            if not snap.directed:
                c = cursor[vi]
                nbr[c] = ui
                wt[c] = w
                eid[c] = e
                cursor[vi] = c + 1
        snap.indptr = indptr
        snap.nbr = nbr
        snap.wt = wt
        snap.eid = eid
        return snap

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    @property
    def num_edges(self) -> int:
        """Unique edge count (each undirected edge counted once)."""
        return len(self.edge_u)

    def endpoints_np(self):
        """int64 NumPy mirrors ``(edge_u, edge_v)`` of the edge endpoints.

        Built on first use and cached on the snapshot, like
        :meth:`half_arrays_np`: survivor masking, the compiled Theorem 2.1
        engine and the compiled fault check read them, and a snapshot
        that none of those touches never pays for them.
        """
        if self._endpoints_np is None:
            self._endpoints_np = (
                _np.asarray(self.edge_u, dtype=_np.int64),
                _np.asarray(self.edge_v, dtype=_np.int64),
            )
        return self._endpoints_np

    def half_arrays_np(self):
        """NumPy mirrors ``(indptr, nbr, wt, eid, deg)`` of the half-edge CSR.

        Built lazily, cached on the snapshot. Index mirrors are int32
        (half the memory traffic of the vectorized tree-extraction passes;
        a snapshot with 2³¹ half edges would not fit in RAM anyway);
        ``indptr`` stays int64 for offset arithmetic.
        """
        if self._half_np is None:
            indptr = _np.asarray(self.indptr, dtype=_np.int64)
            self._half_np = (
                indptr,
                _np.asarray(self.nbr, dtype=_np.int32),
                _np.asarray(self.wt, dtype=_np.float64),
                _np.asarray(self.eid, dtype=_np.int32),
                (indptr[1:] - indptr[:-1]).astype(_np.int32),
            )
        return self._half_np

    def scipy_kernels(self) -> "SciPyGraphKernels":
        """Compiled batched-SSSP kernels for this snapshot, cached on it.

        Callers skip empty hosts before they get here. (csgraph honors
        explicitly-stored zero-weight edges, so zero weights need no
        special casing.)
        """
        if self._sp_kernels is None:
            self._sp_kernels = SciPyGraphKernels(self)
        return self._sp_kernels

    # ------------------------------------------------------------------
    # Index-space kernels
    # ------------------------------------------------------------------
    #
    # Distances use lists with inf / -1 sentinels instead of dicts — the
    # arrays double as the settled-check that lets the heap carry bare
    # (dist, index) pairs with lazy deletion, no per-push tie-break
    # counter needed.

    def dijkstra_idx(
        self,
        source: int,
        cutoff: Optional[float] = None,
        target: int = -1,
    ) -> Tuple[List[float], List[int]]:
        """Array Dijkstra from vertex index ``source``.

        Returns ``(dist, settled_order)``: ``dist[i]`` is the tentative
        distance (``inf`` if unreached) and ``settled_order`` lists the
        vertex indices whose distance is final, in settle order — so
        callers of bounded queries touch O(|ball|) results, not O(n).
        With ``target >= 0`` the scan stops as soon as the target
        settles, mirroring the dict implementation — only settled
        entries are meaningful then.
        """
        n = len(self.verts)
        dist = [INF] * n
        settled = [False] * n
        order: List[int] = []
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        indptr, nbr, wt = self.indptr, self.nbr, self.wt
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, v = pop(heap)
            if settled[v]:
                continue  # stale heap entry
            settled[v] = True
            order.append(v)
            if v == target:
                break
            for e in range(indptr[v], indptr[v + 1]):
                u = nbr[e]
                if settled[u]:
                    continue
                nd = d + wt[e]
                if nd < dist[u] and (cutoff is None or nd <= cutoff):
                    dist[u] = nd
                    push(heap, (nd, u))
        return dist, order

    def multi_source_dijkstra_idx(
        self, sources: Iterable[int]
    ) -> Tuple[List[float], List[int]]:
        """Distances to the nearest of ``sources`` plus the owning source.

        Returns ``(dist, owner)`` where ``owner[i]`` is the source index
        that realizes ``dist[i]`` (-1 if unreached). One heap pass — the
        standard multi-source trick used by cluster decompositions.
        """
        n = len(self.verts)
        dist = [INF] * n
        owner = [-1] * n
        settled = [False] * n
        heap: List[Tuple[float, int]] = []
        for s in sources:
            if dist[s] > 0.0:
                dist[s] = 0.0
                owner[s] = s
                heap.append((0.0, s))
        heapq.heapify(heap)
        indptr, nbr, wt = self.indptr, self.nbr, self.wt
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, v = pop(heap)
            if settled[v]:
                continue
            settled[v] = True
            own = owner[v]
            for e in range(indptr[v], indptr[v + 1]):
                u = nbr[e]
                if settled[u]:
                    continue
                nd = d + wt[e]
                if nd < dist[u]:
                    dist[u] = nd
                    owner[u] = own
                    push(heap, (nd, u))
        return dist, owner

    def bfs_idx(self, source: int, cutoff: Optional[int] = None) -> List[int]:
        """Hop distances from vertex index ``source`` (-1 = unreached)."""
        n = len(self.verts)
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        indptr, nbr = self.indptr, self.nbr
        while queue:
            v = queue.popleft()
            d = dist[v]
            if cutoff is not None and d >= cutoff:
                continue
            for e in range(indptr[v], indptr[v + 1]):
                u = nbr[e]
                if dist[u] < 0:
                    dist[u] = d + 1
                    queue.append(u)
        return dist

    # ------------------------------------------------------------------
    # Survivor masking
    # ------------------------------------------------------------------

    def edge_id(self, u: Vertex, v: Vertex) -> int:
        """The edge id of ``(u, v)`` (orientation-free on undirected hosts).

        The ``(u_idx, v_idx) -> id`` table is built lazily once per
        snapshot; raises ``KeyError`` for absent edges.
        """
        if self._uv_eid is None:
            table: Dict[Tuple[int, int], int] = {}
            if self.directed:
                for e, (ui, vi) in enumerate(zip(self.edge_u, self.edge_v)):
                    table[(ui, vi)] = e
            else:
                for e, (ui, vi) in enumerate(zip(self.edge_u, self.edge_v)):
                    table[(ui, vi) if ui <= vi else (vi, ui)] = e
            self._uv_eid = table
        ui = self.index[u]
        vi = self.index[v]
        if not self.directed and ui > vi:
            ui, vi = vi, ui
        return self._uv_eid[(ui, vi)]

    def survivor_view(
        self, alive: Optional[Sequence] = None, *,
        edge_alive: Optional[Sequence] = None,
    ) -> "SurvivorView":
        """O(m) masked view ``G \\ J`` — no arrays copied, no dict rebuilt.

        ``alive`` is a length-n vertex survivor mask, or ``None`` (all
        vertices alive). ``edge_alive`` is an optional per-edge-id
        survivor mask, letting vertex- and edge-fault pipelines share
        one view type.
        """
        return SurvivorView(self, alive, edge_alive=edge_alive)

    def materialize_edge_ids(self, ids: Iterable[int]) -> BaseGraph:
        """Spanning subgraph holding exactly the edges in ``ids``.

        The bulk twin of repeated ``add_edge`` calls: all vertices are
        added, then the adjacency dicts are written directly (one bump of
        the mutation counter), which matters when a kernel path hands
        back thousands of chosen edge ids.
        """
        g: BaseGraph = DiGraph() if self.directed else Graph()
        g.add_vertices(self.verts)
        verts = self.verts
        edge_u, edge_v, edge_w = self.edge_u, self.edge_v, self.edge_w
        adj = g._adj
        count = 0
        if self.directed:
            pred = g._pred  # type: ignore[attr-defined]
            for e in ids:
                u = verts[edge_u[e]]
                v = verts[edge_v[e]]
                w = edge_w[e]
                if v not in adj[u]:
                    count += 1
                adj[u][v] = w
                pred[v][u] = w
        else:
            for e in ids:
                u = verts[edge_u[e]]
                v = verts[edge_v[e]]
                w = edge_w[e]
                if v not in adj[u]:
                    count += 1
                adj[u][v] = w
                adj[v][u] = w
        g._num_edges += count
        g._version += 1
        return g

    # ------------------------------------------------------------------
    # Vertex-space wrappers (used by the paths.py dispatch)
    # ------------------------------------------------------------------

    def dijkstra_dict(
        self,
        source: Vertex,
        cutoff: Optional[float] = None,
        target: Optional[Vertex] = None,
    ) -> Dict[Vertex, float]:
        """Dict-compatible Dijkstra: settled vertices mapped to distances."""
        src = self.index[source]
        tgt = self.index.get(target, -1) if target is not None else -1
        dist, order = self.dijkstra_idx(src, cutoff=cutoff, target=tgt)
        verts = self.verts
        return {verts[i]: dist[i] for i in order}

    def bfs_dict(
        self, source: Vertex, cutoff: Optional[int] = None
    ) -> Dict[Vertex, int]:
        """Dict-compatible hop distances."""
        dist = self.bfs_idx(self.index[source], cutoff=cutoff)
        verts = self.verts
        return {verts[i]: dist[i] for i in range(len(verts)) if dist[i] >= 0}


class SurvivorView:
    """A ``G \\ J`` view over a :class:`CSRGraph` defined by survivor masks.

    No arrays are copied: the masks filter edge-id lists
    (:meth:`filter_edge_ids`) or set dead half-edges to ``+inf`` in one
    weight vector over the parent CSR's index arrays
    (:meth:`masked_weights`, computed lazily once). ``alive`` masks
    vertices (``None`` = all alive); ``edge_alive`` masks unique edge ids
    (``None`` = all alive) — an edge survives iff both endpoints are
    alive *and* its id is alive, so vertex- and edge-fault scenarios
    share this one view type.
    """

    __slots__ = ("csr", "alive", "edge_alive", "_alive_np", "_half_ok_np",
                 "_masked_wt")

    def __init__(self, csr: CSRGraph, alive: Optional[Sequence] = None,
                 edge_alive: Optional[Sequence] = None):
        self.csr = csr
        self.alive = alive
        self.edge_alive = edge_alive
        self._alive_np = None
        self._half_ok_np = None
        self._masked_wt = None

    @property
    def is_masked(self) -> bool:
        """False when the view is the whole host (no mask on either axis)."""
        return self.alive is not None or self.edge_alive is not None

    def alive_np(self):
        """NumPy bool mirror of the vertex mask (``None`` when unmasked)."""
        if self.alive is None:
            return None
        if self._alive_np is None:
            self._alive_np = _np.asarray(self.alive, dtype=bool)
        return self._alive_np

    def filter_edge_ids(self, ids):
        """Subsequence of edge ids ``ids`` surviving both masks, order kept.

        The per-iteration work of the conversion loops: ``ids`` is a
        precomputed (e.g. weight-sorted) id list and the result feeds the
        indexed greedy kernel directly. One vectorized O(m) pass.
        """
        if not self.is_masked:
            return ids
        csr = self.csr
        ids_np = _np.asarray(ids, dtype=_np.int64)
        ok = True
        if self.alive is not None:
            alive_np = self.alive_np()
            edge_u, edge_v = csr.endpoints_np()
            ok = alive_np[edge_u[ids_np]] & alive_np[edge_v[ids_np]]
        if self.edge_alive is not None:
            ok = ok & _np.asarray(self.edge_alive, dtype=bool)[ids_np]
        return ids_np[ok]

    def _half_ok(self):
        """NumPy bool per half-edge slot (``None`` = nothing masked)."""
        if not self.is_masked:
            return None
        if self._half_ok_np is None:
            csr = self.csr
            _indptr, nbr, _wt, eid, deg = csr.half_arrays_np()
            ok = None
            if self.alive is not None:
                alive_np = self.alive_np()
                src = _np.repeat(
                    _np.arange(csr.num_vertices, dtype=_np.int64), deg
                )
                ok = alive_np[src] & alive_np[nbr]
            if self.edge_alive is not None:
                edge_ok = _np.asarray(self.edge_alive, dtype=bool)[eid]
                ok = edge_ok if ok is None else ok & edge_ok
            self._half_ok_np = ok
        return self._half_ok_np

    def masked_weights(self):
        """Half-edge weight vector with ``+inf`` on dead slots.

        ``None`` when the view is unmasked (callers then use the
        snapshot's base weights). An infinite
        edge can never lie on a finite shortest path, so handing this to
        :class:`SciPyGraphKernels` runs any distance pass on the
        survivor subgraph without touching the index arrays.
        """
        ok = self._half_ok()
        if ok is None:
            return None
        if self._masked_wt is None:
            _indptr, _nbr, wt, _eid, _deg = self.csr.half_arrays_np()
            data = wt.copy()
            data[~ok] = _np.inf
            self._masked_wt = data
        return self._masked_wt


def multi_arange(starts, counts):
    """Vectorized ``concatenate([arange(s, s + c) for s, c in zip(...)])``.

    The standard NumPy "multi-arange" trick; used to gather the incident
    half-edge slices of a member set in one C pass.
    """
    total = int(counts.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64)
    out = _np.ones(total, dtype=_np.int64)
    out[0] = starts[0]
    boundaries = counts.cumsum()
    out[boundaries[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return out.cumsum()


class SciPyGraphKernels:
    """Batched shortest-path kernels over one snapshot, compiled via SciPy.

    ``scipy.sparse.csgraph.dijkstra`` runs the same relaxation recurrence
    as the dict implementations, in C. Each final distance is the minimum
    over the same set of IEEE-double path sums, so distances are
    *bit-identical* to the dict Dijkstras — which is what lets the
    clustering spanners define their outputs distance-locally and stay
    edge-set-identical across execution paths.

    The snapshot's half-edge structure is reused for every call; variant
    weight vectors (Johnson-primed levels, fault masks) share the index
    arrays and only swap the data vector. Fault masking sets the weights
    of every half-edge incident to a faulted vertex to ``+inf`` — an
    infinite edge can never lie on a finite shortest path, and SciPy
    propagates inf exactly like the dict implementations treat absent
    vertices.
    """

    __slots__ = ("csr", "base_data", "_indices32", "_indptr32", "_h_src")

    def __init__(self, csr: CSRGraph):
        self.csr = csr
        indptr, nbr, wt, _eid, _deg = csr.half_arrays_np()
        # csgraph works on int32 index arrays; convert once, not per call.
        self._indices32 = nbr.astype(_np.int32)
        self._indptr32 = indptr.astype(_np.int32)
        self.base_data = wt
        self._h_src = None

    def matrix(self, data=None):
        """A csgraph matrix sharing the snapshot's structure.

        ``data`` defaults to the true weights; pass a variant vector
        (primed weights, fault-masked weights) to reuse the structure.
        Undirected snapshots store both half-edges, so the matrix is
        always traversed in directed mode.
        """
        n = self.csr.num_vertices
        return _sp_csr_matrix(
            (self.base_data if data is None else data, self._indices32, self._indptr32),
            shape=(n, n),
        )

    def multi_source(self, sources: Sequence[int], data=None):
        """Distance to the nearest of ``sources`` as a float array."""
        return _sp_dijkstra(
            self.matrix(data), directed=True, indices=list(sources), min_only=True
        )

    def sssp_rows(self, sources: Sequence[int], limit: float = INF, data=None):
        """Full SSSP rows for each source; entries beyond ``limit`` are inf."""
        return _sp_dijkstra(
            self.matrix(data), directed=True, indices=list(sources), limit=limit
        )

    def half_sources(self):
        """Source vertex of each half-edge (``repeat(arange(n), deg)``)."""
        if self._h_src is None:
            _indptr, _nbr, _wt, _eid, deg = self.csr.half_arrays_np()
            self._h_src = _np.repeat(
                _np.arange(self.csr.num_vertices, dtype=_np.int32), deg
            )
        return self._h_src


# ---------------------------------------------------------------------------
# Method dispatch
# ---------------------------------------------------------------------------

#: The accepted values of the ``method=`` kwarg shared by the spanner /
#: decomposition constructors (greedy, Thorup–Zwick, Baswana–Sen, the CLPR
#: baseline, and the padded-decomposition sampler). ``"compiled"`` is the
#: optional C-backend tier (see :mod:`repro.compiled`) served only by
#: algorithms whose registry row sets ``compiled_path``.
METHODS = ("auto", "csr", "dict", "compiled")


def resolve_method(
    method: str,
    num_vertices: int,
    *,
    directed: bool = False,
    directed_csr: bool = True,
    compiled_path: bool = False,
) -> str:
    """The one dispatch rule behind every shared ``method=`` kwarg.

    The accepted values are exactly :data:`METHODS` —
    ``"auto"``, ``"csr"``, ``"dict"``, and ``"compiled"``:

    * ``"dict"`` — always run the reference dict-of-dict implementation
      (the pinned reference every other tier is property-tested against).
    * ``"csr"`` — always run the CSR fast path (even on tiny graphs).
    * ``"compiled"`` — run the C-backend kernels
      (:mod:`repro.compiled`). Raises ``ValueError`` when the algorithm
      has no compiled kernel (``compiled_path=False``) and
      :class:`repro.errors.CompiledBackendUnavailable` when the backend
      cannot build/load — an explicit request never downgrades silently.
    * ``"auto"`` — the compiled tier iff the caller has one
      (``compiled_path=True``), the backend is available, and the graph
      has at least :data:`MIN_DISPATCH_VERTICES` vertices; otherwise the
      CSR path at the same size threshold; below it the snapshot
      overhead dominates and the dict implementations win.

    ``directed``/``directed_csr`` describe the *caller's* fast path.
    Most consumers ride the directed CSR snapshot natively (the greedy
    indexed kernel keeps a reverse adjacency, the Theorem 2.1 engine and
    the path queries traverse out-edges) and can leave the defaults
    alone. A fast path that is genuinely undirected-only — TZ and
    CLPR need reverse traversal the directed snapshot does not store —
    passes ``directed=graph.directed, directed_csr=False``: ``"auto"``
    then resolves to ``"dict"`` on digraphs, and an explicit ``"csr"``
    (or ``"compiled"``) raises instead of silently downgrading, so a
    caller who pinned the fast path learns the truth instead of
    benchmarking the wrong kernel.

    All tiers of every algorithm are pinned output-identical (same RNG
    stream, same edge sets / cluster assignments) by the property tests
    in ``tests/test_algorithms_csr.py`` and ``tests/test_compiled.py``,
    so the choice is performance-only.
    """
    if method not in METHODS:
        raise ValueError(
            f"method must be one of {METHODS} "
            f"('auto' = size/backend-based dispatch, 'csr' = the CSR "
            f"fast path, 'dict' = the pinned reference, 'compiled' = "
            f"the optional C backend), got {method!r}"
        )
    if directed and not directed_csr:
        if method in ("csr", "compiled"):
            raise ValueError(
                f"method={method!r} requested but this pipeline's fast "
                "kernels are undirected-only (the directed CSR snapshot "
                "stores out-edges only); use method='auto'/'dict' or an "
                "undirected host"
            )
        return "dict"
    if method == "compiled":
        if not compiled_path:
            raise ValueError(
                "method='compiled' requested but this algorithm has no "
                "compiled kernel (registry capability compiled_path is "
                "false); use method='auto', 'csr', or 'dict'"
            )
        from ..compiled import require_compiled

        require_compiled()  # raises CompiledBackendUnavailable if absent
        return "compiled"
    if method == "auto":
        if num_vertices < MIN_DISPATCH_VERTICES:
            return "dict"
        if compiled_path:
            from ..compiled import compiled_available

            if compiled_available():
                return "compiled"
        return "csr"
    return method


# ---------------------------------------------------------------------------
# Cached snapshots
# ---------------------------------------------------------------------------


def snapshot(graph: BaseGraph) -> CSRGraph:
    """Return the CSR snapshot of ``graph``, cached by mutation counter.

    The cache lives on the graph instance (``_csr_cache``); any mutation
    bumps ``_version`` and invalidates it, so a stale snapshot is never
    served. Building is O(n + m) and happens at most once per graph state.
    """
    version = getattr(graph, "_version", None)
    cache = getattr(graph, "_csr_cache", None)
    if cache is not None and cache[0] == version:
        return cache[1]
    snap = CSRGraph.from_graph(graph)
    graph._csr_cache = (version, snap)  # type: ignore[attr-defined]
    return snap


def maybe_snapshot(graph: BaseGraph, build: bool = True) -> Optional[CSRGraph]:
    """Snapshot for dispatch: None when the dict path is the better bet.

    Small graphs never dispatch. With ``build=False`` only an
    already-cached, still-valid snapshot is returned — callers use this
    for *bounded* queries (cutoff / early-target), where the dict
    implementation explores a small ball and an O(n + m) snapshot build
    per query would be a net loss in mutate-query loops; a bounded query
    still rides the CSR when some earlier global query paid for the
    snapshot.
    """
    if graph.num_vertices < MIN_DISPATCH_VERTICES:
        return None
    if not build:
        cache = getattr(graph, "_csr_cache", None)
        if cache is None or cache[0] != getattr(graph, "_version", None):
            return None
        return cache[1]
    return snapshot(graph)


def invalidate_snapshot(graph: BaseGraph) -> None:
    """Drop ``graph``'s cached CSR snapshot, releasing its arrays.

    Correctness never needs this — every mutator bumps ``_version`` and
    the cache checks it — but a long-lived owner of a mutating graph
    (the serving layer) calls it to free a snapshot that will never be
    valid again, instead of keeping the stale O(n + m) arrays pinned
    until the next global query happens to rebuild them.
    """
    if getattr(graph, "_csr_cache", None) is not None:
        graph._csr_cache = None  # type: ignore[attr-defined]
