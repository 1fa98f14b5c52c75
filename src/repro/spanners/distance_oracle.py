"""Thorup–Zwick approximate distance oracles [TZ05].

The spanner of :mod:`repro.spanners.thorup_zwick` is one artefact of the
TZ construction; the other is the queryable *oracle*: after
``O(t · n^{1+1/t})``-space preprocessing, any distance query is answered in
O(t) time within stretch ``2t - 1``. CLPR09 — the baseline the paper
improves on — is built around exactly this structure, so the reproduction
carries the full oracle, not just the spanner.

Construction (classical):

* sample ``V = A_0 ⊇ A_1 ⊇ ... ⊇ A_t = ∅`` with per-level probability
  ``n^{-1/t}``;
* for each vertex ``v`` and level ``i``, the *witness* ``p_i(v)`` is the
  nearest vertex of ``A_i`` (with its distance);
* the *bunch* ``B(v) = ∪_i { w ∈ A_i \\ A_{i+1} : d(w, v) < d(A_{i+1}, v) }``
  stores exact distances from ``v`` to selected landmarks.

Query(u, v): walk the levels, alternating sides — ``w = p_i(u)``; if
``w ∈ B(v)`` answer ``d(u, w) + d(w, v)``; otherwise swap ``u`` and ``v``
and move up a level. Termination at level ``t - 1`` is guaranteed because
``A_{t-1} ⊆ B(x)`` for every ``x``; the standard induction gives
``d(u, w) <= i · d(u, v)`` at level ``i``, hence stretch ``2t - 1``.

Execution paths mirror :mod:`repro.spanners.thorup_zwick`: the
``method="csr"`` path runs the witness passes on the labeled multi-source
Dijkstra kernel and the bunch (cluster) searches on the compiled
Johnson-primed limited SSSP, recovering original-space distances with the
same float expression on both paths — so a fixed seed yields identical
witnesses and identical bunch dictionaries either way, and the RNG is
consumed in host vertex order (reproducible across processes).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from ..errors import InvalidStretch
from ..graph.csr import resolve_method, snapshot
from ..graph.graph import BaseGraph
from ..registry import register_algorithm
from ..rng import RandomLike, ensure_rng
from .thorup_zwick import (
    _CHUNK,
    _cluster_dists_dict,
    _level_centers,
    _multi_source_distances,
    _vertex_order,
    sample_hierarchy,
)

Vertex = Hashable

INF = math.inf


@dataclass
class DistanceOracle:
    """A preprocessed TZ oracle; query with :meth:`query`."""

    t: int
    witnesses: List[Dict[Vertex, Tuple[Vertex, float]]]  # level -> v -> (p_i(v), d)
    bunches: Dict[Vertex, Dict[Vertex, float]]  # v -> {w: d(v, w)}

    @property
    def stretch(self) -> int:
        return 2 * self.t - 1

    def bunch_size(self, v: Vertex) -> int:
        """Number of landmarks stored for ``v`` (space accounting)."""
        return len(self.bunches[v])

    def total_size(self) -> int:
        """Total stored landmark entries (the O(t n^{1+1/t}) quantity)."""
        return sum(len(b) for b in self.bunches.values())

    def query(self, u: Vertex, v: Vertex) -> float:
        """Approximate ``d(u, v)`` within factor ``2t - 1``.

        The stretch guarantee is stated for connected (components of)
        graphs; ``inf`` is returned when the walk runs out of witnesses
        (which certifies disconnection for connected-level hierarchies).
        Returns 0.0 for ``u == v``.
        """
        if u == v:
            return 0.0
        # Invariant: w = p_i(u) and d_uw = d(u, w); at level 0, p_0(u) = u.
        w, d_uw = u, 0.0
        i = 0
        while w not in self.bunches[v]:
            i += 1
            if i >= self.t:
                return INF
            u, v = v, u
            entry = self.witnesses[i].get(u)
            if entry is None:
                return INF
            w, d_uw = entry
        return d_uw + self.bunches[v][w]


def _multi_source_witnesses(
    graph: BaseGraph, sources: Set[Vertex]
) -> Dict[Vertex, Tuple[Vertex, float]]:
    """For each vertex, its nearest source and the distance to it.

    Heap keys, source seeding order, and the strict-improvement owner
    update mirror :meth:`repro.graph.csr.CSRGraph.multi_source_dijkstra_idx`
    exactly, so the dict and CSR paths return identical witnesses.
    """
    order = _vertex_order(graph)
    out: Dict[Vertex, Tuple[Vertex, float]] = {}
    best: Dict[Vertex, float] = {}
    own: Dict[Vertex, Vertex] = {}
    heap: List[Tuple[float, int, Vertex]] = []
    for s in sorted(sources, key=order.__getitem__):
        best[s] = 0.0
        own[s] = s
        heap.append((0.0, order[s], s))
    heapq.heapify(heap)
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in out:
            continue
        out[v] = (own[v], d)
        items = graph.successor_items(v) if graph.directed else graph.neighbor_items(v)
        for u, w in items:
            if u in out:
                continue
            nd = d + w
            if nd < best.get(u, INF):
                best[u] = nd
                own[u] = own[v]
                heapq.heappush(heap, (nd, order[u], u))
    return out


def _build_oracle_dict(
    graph: BaseGraph, t: int, vertices: List[Vertex], levels
) -> DistanceOracle:
    """Reference dict-of-dict preprocessing."""
    order = _vertex_order(graph)
    witnesses: List[Dict[Vertex, Tuple[Vertex, float]]] = [
        _multi_source_witnesses(graph, levels[i]) if levels[i] else {}
        for i in range(t)
    ]
    bunches: Dict[Vertex, Dict[Vertex, float]] = {v: {} for v in vertices}
    n = graph.num_vertices
    for i in range(t):
        phi = _multi_source_distances(graph, levels[i + 1]) if levels[i + 1] else None
        primed = phi is not None and len(phi) == n
        for w in _level_centers(vertices, levels, i):
            dist = _cluster_dists_dict(graph, order, w, phi, primed)
            if primed:
                pw = phi[w]
                for v, dv in dist.items():
                    bunches[v][w] = (dv - pw) + phi[v]
            else:
                for v, dv in dist.items():
                    bunches[v][w] = dv
    return DistanceOracle(t=t, witnesses=witnesses, bunches=bunches)


def _build_oracle_csr(
    graph: BaseGraph, t: int, vertices: List[Vertex], levels
) -> DistanceOracle:
    """CSR path: kernel witness passes + compiled batched bunch searches."""
    snap = snapshot(graph)
    kernels = snap.scipy_kernels()
    index = snap.index
    verts = snap.verts
    witnesses: List[Dict[Vertex, Tuple[Vertex, float]]] = []
    for i in range(t):
        if not levels[i]:
            witnesses.append({})
            continue
        sources = sorted(index[v] for v in levels[i])
        dist, owner = snap.multi_source_dijkstra_idx(sources)
        witnesses.append(
            {
                verts[j]: (verts[owner[j]], dist[j])
                for j in range(len(verts))
                if owner[j] >= 0
            }
        )
    bunches: Dict[Vertex, Dict[Vertex, float]] = {v: {} for v in vertices}
    _indptr, nbr, wt, _eid, _deg = snap.half_arrays_np()
    for i in range(t):
        phi_np = None
        if levels[i + 1]:
            phi_np = kernels.multi_source(sorted(index[v] for v in levels[i + 1]))
        centers = [index[w] for w in _level_centers(vertices, levels, i)]
        if not centers:
            continue
        primed = phi_np is not None and bool(np.isfinite(phi_np).all())
        if primed:
            h_src = kernels.half_sources()
            data = (wt + phi_np[h_src]) - phi_np[nbr]
            radii = phi_np[centers]
            by_radius = sorted(range(len(centers)), key=lambda k: (radii[k], k))
            batches = [
                [centers[k] for k in by_radius[lo : lo + _CHUNK]]
                for lo in range(0, len(by_radius), _CHUNK)
            ]
        else:
            data = None
            batches = [centers]
        for batch in batches:
            if primed:
                limit = float(phi_np[batch].max())
                rows = kernels.sssp_rows(batch, limit=limit, data=data)
            else:
                rows = kernels.sssp_rows(batch)
            for k, c in enumerate(batch):
                dist = rows[k]
                if primed:
                    members = dist < phi_np[c]
                elif phi_np is not None:
                    members = dist < phi_np
                else:
                    members = np.isfinite(dist)
                midx = np.nonzero(members)[0]
                if primed:
                    vals = (dist[midx] - phi_np[c]) + phi_np[midx]
                else:
                    vals = dist[midx]
                w = verts[c]
                for j, dv in zip(midx.tolist(), vals.tolist()):
                    bunches[verts[j]][w] = dv
    return DistanceOracle(t=t, witnesses=witnesses, bunches=bunches)


def build_distance_oracle(
    graph: BaseGraph,
    t: int,
    seed: RandomLike = None,
    sample_probability: Optional[float] = None,
    *,
    method: str = "auto",
) -> DistanceOracle:
    """Preprocess a TZ distance oracle of stretch ``2t - 1``.

    ``method`` follows :func:`repro.graph.csr.resolve_method`; both paths
    build identical oracles for a fixed seed (``"auto"`` runs directed
    graphs on the dict path).
    """
    if t < 1:
        raise InvalidStretch(f"hierarchy depth t must be >= 1, got {t}")
    rng = ensure_rng(seed)
    vertices = list(graph.vertices())
    levels = sample_hierarchy(vertices, t, rng, sample_probability)
    # The query walk needs the top nonempty level A_{t-1} to be nonempty
    # (every bunch contains all of it); TZ resample on failure — we apply
    # the equivalent fix of promoting one random vertex up the hierarchy.
    if vertices and not levels[t - 1]:
        pick = rng.choice(vertices)
        for i in range(1, t):
            levels[i].add(pick)
    # Same undirected-only compiled path as the TZ spanner: digraphs
    # auto-dispatch to dict, explicit method="csr" raises.
    resolved = resolve_method(
        method, graph.num_vertices,
        directed=graph.directed, directed_csr=False,
    )
    if resolved == "csr" and vertices:
        return _build_oracle_csr(graph, t, vertices, levels)
    return _build_oracle_dict(graph, t, vertices, levels)


@register_algorithm(
    "tz-oracle",
    summary="Thorup–Zwick approximate distance oracle (stretch 2t-1 queries)",
    stretch_domain="odd integers 2t-1 (3, 5, 7, ...)",
    weighted=True,
    directed=False,
    csr_path=True,
    stretch_kind="odd",
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> build_distance_oracle``.

    The artifact is the :class:`DistanceOracle` itself (it has no single
    spanner graph); the report's ``size`` is the stored landmark count —
    the ``O(t n^{1+1/t})`` quantity of the TZ space bound.
    """
    from ..spec import stretch_to_levels

    oracle = build_distance_oracle(
        graph,
        stretch_to_levels(spec),
        seed=seed,
        sample_probability=spec.param("sample_probability"),
        method=spec.method,
    )
    stats = {
        "size": oracle.total_size(),
        "stretch": oracle.stretch,
        "max_bunch": max(
            (oracle.bunch_size(v) for v in oracle.bunches), default=0
        ),
    }
    return oracle, stats
