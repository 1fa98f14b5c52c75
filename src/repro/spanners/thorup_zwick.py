"""Thorup–Zwick (2t-1)-spanner via sampled vertex hierarchies.

The Chechik–Langberg–Peleg–Roditty fault-tolerant construction (the
baseline the paper improves on) is built around the Thorup–Zwick distance
oracle's cluster structure. We implement the spanner variant: sample a
hierarchy ``V = A_0 ⊇ A_1 ⊇ ... ⊇ A_t = ∅`` (each level keeps a vertex
with probability ``n^{-1/t}``), and for every center ``w ∈ A_i \\ A_{i+1}``
add the shortest-path tree of its *cluster*

    C(w) = { v : d(w, v) < d(A_{i+1}, v) }.

The union of these trees is a (2t-1)-spanner with expected size
``O(t · n^{1 + 1/t})`` [TZ05].

Execution paths (dispatch rule: :func:`repro.graph.csr.resolve_method`):

* ``method="csr"`` runs each hierarchy level through the snapshot's
  compiled kernels (:class:`repro.graph.csr.SciPyGraphKernels`): one
  labeled multi-source pass for the level distances ``φ = d(A_{i+1}, ·)``
  and one *batched, radius-limited* SSSP for all cluster trees of the
  level, followed by a vectorized tree-edge extraction;
* ``method="dict"`` is the reference dict-of-dict implementation.

Three decisions pin the two paths edge-set-identical for a fixed seed:

1. **RNG order** — every Bernoulli draw happens in host vertex order
   (never set-iteration order), so hierarchies match across paths *and*
   across processes regardless of hash randomization.
2. **Johnson priming** — cluster searches run on the reweighted edges
   ``w'(u, v) = (w + φ[u]) - φ[v]``. Because ``φ`` is itself a Dijkstra
   output, ``φ[v] <= fl(w + φ[u])`` holds for the *float* values, so
   ``w' >= 0`` exactly and the TZ membership rule ``d(w, v) < φ[v]``
   becomes the radius rule ``d'(w, v) < φ[w]`` — a scalar cutoff both a
   dict Dijkstra and the compiled kernel's ``limit`` implement
   identically. Both paths evaluate the same float expressions in the
   same order, so primed distances agree bit-for-bit. (Levels whose ``φ``
   is not finite everywhere — disconnected hosts — fall back to the
   unprimed barrier rule on both paths.)
3. **Distance-local tree edges** — each member's parent is its
   *smallest-host-order* strict tight predecessor (``d'[u] + w' == d'[v]``
   with ``d'[u] < d'[v]``, ``u`` in the cluster), found by a post-pass
   over member adjacencies. The rule depends only on final distances,
   never on relaxation order, so any correct SSSP implementation extracts
   the same tree. Members with *no* strict predecessor (possible only on
   zero-weight plateaus, e.g. primed unit-weight graphs) are connected by
   a canonical plateau sweep — processed in ``(distance, order)`` order,
   each joins its smallest-order equal-distance tight neighbour that is
   already connected; every plateau provably contains an entry vertex, so
   the sweep reaches everyone. Both passes are identical (and identically
   ordered) on every execution path.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from ..errors import InvalidStretch
from ..graph.csr import multi_arange, resolve_method, snapshot
from ..graph.graph import BaseGraph
from ..registry import register_algorithm
from ..rng import RandomLike, ensure_rng

Vertex = Hashable

INF = math.inf


def _vertex_order(graph: BaseGraph) -> Dict[Vertex, int]:
    """Canonical tie-break order: position in the host's vertex iteration."""
    return {v: i for i, v in enumerate(graph.vertices())}


def _multi_source_distances(
    graph: BaseGraph, sources
) -> Dict[Vertex, float]:
    """Distance from each vertex to its nearest source (absent if none).

    Deterministic: the heap is keyed ``(dist, vertex order)`` with sources
    seeded in host vertex order, and relaxation uses strict improvement —
    exactly the semantics of the CSR multi-source kernels, so all
    implementations agree bit-for-bit.
    """
    order = _vertex_order(graph)
    dist: Dict[Vertex, float] = {}
    best: Dict[Vertex, float] = {}
    heap: List[Tuple[float, int, Vertex]] = []
    for s in sorted(sources, key=order.__getitem__):
        best[s] = 0.0
        heap.append((0.0, order[s], s))
    heapq.heapify(heap)
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        items = graph.successor_items(v) if graph.directed else graph.neighbor_items(v)
        for u, w in items:
            if u in dist:
                continue
            nd = d + w
            if nd < best.get(u, INF):
                best[u] = nd
                heapq.heappush(heap, (nd, order[u], u))
    return dist


def sample_hierarchy(
    vertices: List[Vertex], t: int, rng, sample_probability: Optional[float] = None
) -> List[Set[Vertex]]:
    """Sample the TZ hierarchy ``A_0 ⊇ ... ⊇ A_t = ∅``.

    ``sample_probability`` defaults to ``n^{-1/t}``. The top level is
    forced empty, per the TZ definition. One Bernoulli draw per member of
    the previous level, taken in ``vertices`` order — never in set
    iteration order — so a fixed seed reproduces the hierarchy across
    processes and across the csr/dict execution paths.
    """
    n = max(len(vertices), 1)  # an empty host draws nothing; 0 ** -x raises
    p = sample_probability if sample_probability is not None else n ** (-1.0 / t)
    levels: List[Set[Vertex]] = [set(vertices)]
    for _ in range(1, t):
        prev = levels[-1]
        levels.append({v for v in vertices if v in prev and rng.random() < p})
    levels.append(set())
    return levels


def _level_centers(
    vertices: List[Vertex], levels: List[Set[Vertex]], i: int
) -> List[Vertex]:
    """``A_i \\ A_{i+1}`` in host vertex order (the canonical center order)."""
    hi, lo = levels[i], levels[i + 1]
    return [v for v in vertices if v in hi and v not in lo]


# ---------------------------------------------------------------------------
# Dict reference path
# ---------------------------------------------------------------------------


def _cluster_dists_dict(
    graph: BaseGraph,
    order: Dict[Vertex, int],
    center: Vertex,
    phi: Optional[Dict[Vertex, float]],
    primed: bool,
) -> Dict[Vertex, float]:
    """Truncated Dijkstra computing C(center)'s (primed) distances.

    ``primed`` requires ``phi`` to be finite on every vertex; the search
    then runs on ``w' = (w + φ[u]) - φ[v]`` with the scalar cutoff
    ``φ[center]``. Otherwise the classical barrier rule
    ``nd >= φ.get(v, inf) → skip`` applies (``phi=None`` = unrestricted).
    """
    dist: Dict[Vertex, float] = {}
    best: Dict[Vertex, float] = {center: 0.0}
    heap: List[Tuple[float, int, Vertex]] = [(0.0, order[center], center)]
    cutoff = phi[center] if primed else INF
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        items = graph.successor_items(v) if graph.directed else graph.neighbor_items(v)
        if primed:
            pv = phi[v]
            for u, w in items:
                if u in dist:
                    continue
                nd = d + ((w + pv) - phi[u])
                if nd >= cutoff:
                    continue
                if nd < best.get(u, INF):
                    best[u] = nd
                    heapq.heappush(heap, (nd, order[u], u))
        else:
            for u, w in items:
                if u in dist:
                    continue
                nd = d + w
                if phi is not None and nd >= phi.get(u, INF):
                    continue
                if nd < best.get(u, INF):
                    best[u] = nd
                    heapq.heappush(heap, (nd, order[u], u))
    return dist


def _cluster_tree_edges(
    graph: BaseGraph,
    center: Vertex,
    barrier: Dict[Vertex, float],
    order: Optional[Dict[Vertex, int]] = None,
) -> List[Tuple[Vertex, Vertex]]:
    """Tree edges of C(center): canonical min-order tight parents.

    Kept as the module-internal building block of the dict path (and the
    CLPR baseline). ``barrier`` is the level distance map; an empty dict
    means unrestricted (the top level).
    """
    if order is None:
        order = _vertex_order(graph)
    phi = barrier if barrier else None
    primed = phi is not None and len(phi) == graph.num_vertices
    dist = _cluster_dists_dict(graph, order, center, phi, primed)
    return _tree_edges_from_dists(graph, order, center, dist, phi, primed)


def _tree_edges_from_dists(
    graph: BaseGraph,
    order: Dict[Vertex, int],
    center: Vertex,
    dist: Dict[Vertex, float],
    phi: Optional[Dict[Vertex, float]],
    primed: bool,
) -> List[Tuple[Vertex, Vertex]]:
    """Canonical tree edges from final distances alone.

    Strict pass: min-order tight predecessor with strictly smaller
    distance. Plateau sweep: members with no strict predecessor join
    their min-order equal-distance tight neighbour that is already
    connected, processed in ``(distance, order)`` order until stable.
    """
    edges: List[Tuple[Vertex, Vertex]] = []
    rest: List[Vertex] = []

    def _items(v):
        return (
            graph.predecessor_items(v) if graph.directed else graph.neighbor_items(v)
        )

    for v, dv in dist.items():
        if v == center:
            continue
        parent = None
        pord = -1
        pv = phi[v] if primed else 0.0
        for u, w in _items(v):
            du = dist.get(u)
            if du is None or du >= dv:
                continue
            wp = (w + phi[u]) - pv if primed else w
            if du + wp == dv and (parent is None or order[u] < pord):
                parent = u
                pord = order[u]
        if parent is not None:
            edges.append((parent, v))
        else:
            rest.append(v)
    if rest:
        connected = set(dist)
        connected.difference_update(rest)
        rest.sort(key=lambda v: (dist[v], order[v]))
        progress = True
        while rest and progress:
            progress = False
            leftover: List[Vertex] = []
            for v in rest:
                dv = dist[v]
                pv = phi[v] if primed else 0.0
                parent = None
                pord = -1
                for u, w in _items(v):
                    if u not in connected:
                        continue
                    du = dist.get(u)
                    if du != dv:
                        continue
                    wp = (w + phi[u]) - pv if primed else w
                    if du + wp == dv and (parent is None or order[u] < pord):
                        parent = u
                        pord = order[u]
                if parent is not None:
                    edges.append((parent, v))
                    connected.add(v)
                    progress = True
                else:
                    leftover.append(v)
            rest = leftover
        # Any leftover is theoretically impossible (every plateau has an
        # entry); leaving it out is at worst a dropped tree edge, and is
        # identical on every path.
    return edges


def _thorup_zwick_dict(
    graph: BaseGraph, t: int, vertices: List[Vertex], levels: List[Set[Vertex]]
) -> BaseGraph:
    """Reference dict-of-dict construction (kept for equivalence tests)."""
    spanner = type(graph)()
    spanner.add_vertices(vertices)
    order = _vertex_order(graph)
    for i in range(t):
        barrier = _multi_source_distances(graph, levels[i + 1]) if levels[i + 1] else {}
        for w in _level_centers(vertices, levels, i):
            for a, b in _cluster_tree_edges(graph, w, barrier, order):
                spanner.add_edge(a, b, graph.weight(a, b))
    return spanner


# ---------------------------------------------------------------------------
# CSR / compiled path
# ---------------------------------------------------------------------------


#: Centers per compiled search batch on restricted levels. Centers are
#: sorted by their cluster radius φ(w) first, so each batch's scalar
#: ``limit`` stays close to its members' true radii and the limited
#: search explores little more than the clusters themselves.
_CHUNK = 48


def _select_parents(encoded, counts):
    """Min encoded parent per contiguous (child) group; sentinel = none.

    ``reduceat`` cannot express empty groups (a start equal to ``len``
    raises; an interior empty start misreads the next group), so the
    reduction runs over the nonzero-count starts only — a zero-width
    group occupies no elements, so dropping its start leaves every other
    segment unchanged — and empties get the sentinel explicitly.
    """
    sentinel = np.iinfo(encoded.dtype).max
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    if len(counts) and counts.min() == 0:
        nz = counts > 0
        gmin = np.full(len(counts), sentinel, dtype=encoded.dtype)
        if bool(nz.any()):
            gmin[nz] = np.minimum.reduceat(encoded, starts[nz])
        return gmin
    return np.minimum.reduceat(encoded, starts)


def _extract_restricted(
    snap, chosen, centers, rows, phi_true, phi_prime, primed
) -> None:
    """Tree edges for one batch of *restricted* cluster searches.

    Pools every cluster's members, gathers their incident half-edges in
    one pass, and reduces to the canonical min-order strict tight parent
    per (cluster, member). Zero-weight plateau members are handed to the
    python sweep (rare; only exact distance ties produce them).
    ``phi_true`` carries the membership barriers, ``phi_prime`` the
    priming potentials (they differ only under fault masking, where
    unreachable vertices prime as 0 but can never pass any test).
    """
    indptr, nbr, wt, eid, deg = snap.half_arrays_np()
    n = snap.num_vertices
    child_chunks = []
    row_chunks = []
    for k in range(len(centers)):
        dist = rows[k]
        if primed:
            members = dist < phi_true[centers[k]]
        else:
            members = dist < phi_true if phi_true is not None else np.isfinite(dist)
        midx = np.nonzero(members)[0]
        midx = midx[midx != centers[k]]  # the center has no parent
        if len(midx):
            child_chunks.append(midx)
            row_chunks.append(np.full(len(midx), k, dtype=np.int32))
    if not child_chunks:
        return
    children = np.concatenate(child_chunks)
    rowids = np.concatenate(row_chunks)
    counts = deg[children]
    half = multi_arange(indptr[children], counts)
    h_nbr = nbr[half]
    h_eid = eid[half]
    h_row = np.repeat(rowids, counts)
    flat = rows.ravel()
    h_dist_child = np.repeat(rows[rowids, children], counts)
    h_dist_nbr = flat.take(h_row.astype(np.int64) * n + h_nbr)
    # Weight of the *reverse* half-edge (parent → child); primed weights
    # are asymmetric, so recompute with the search data's expression:
    # (w + φ[parent]) - φ[child].
    if primed:
        h_w = (wt[half] + phi_prime[h_nbr]) - np.repeat(phi_prime[children], counts)
    else:
        h_w = wt[half]
    tight = h_dist_nbr + h_w == h_dist_child
    tight &= h_dist_nbr < h_dist_child  # strict pass: smaller distance
    if not primed and phi_true is not None:
        tight &= h_dist_nbr < phi_true[h_nbr]  # parent must be a member
    m1 = snap.num_edges + 1
    sentinel = np.iinfo(np.int64).max
    encoded = np.where(tight, h_nbr.astype(np.int64) * m1 + h_eid, sentinel)
    gmin = _select_parents(encoded, counts)
    ok = gmin < sentinel
    chosen.update((gmin[ok] % m1).tolist())
    if not bool(ok.all()):
        rest_children = children[~ok]
        rest_rows = rowids[~ok]
        for k in np.unique(rest_rows).tolist():
            rest = rest_children[rest_rows == k].tolist()
            _plateau_fixup_idx(
                snap, chosen, centers[k], rows[k], phi_true, phi_prime, primed, rest
            )


def _extract_unrestricted(snap, chosen, centers, rows) -> None:
    """Tree edges for full (top-level) SPTs, one lean pass per center.

    Every reachable vertex is a member, so the candidate pool per center
    is the whole half-edge array: no member gather is needed and the
    group boundaries are the CSR ``indptr`` itself.
    """
    indptr, nbr, wt, eid, deg = snap.half_arrays_np()
    m1 = snap.num_edges + 1
    sentinel = np.iinfo(np.int64).max
    enc_base = nbr.astype(np.int64) * m1 + eid
    for k in range(len(centers)):
        dist = rows[k]
        h_dist_child = np.repeat(dist, deg)
        h_dist_nbr = dist.take(nbr)
        tight = h_dist_nbr + wt == h_dist_child
        tight &= h_dist_nbr < h_dist_child
        encoded = np.where(tight, enc_base, sentinel)
        gmin = _select_parents(encoded, deg)
        ok = gmin < sentinel
        # Unreachable vertices and the center legitimately lack parents.
        reachable = np.isfinite(dist)
        reachable[centers[k]] = False
        chosen.update((gmin[ok & reachable] % m1).tolist())
        rest = np.nonzero(reachable & ~ok)[0]
        if len(rest):
            _plateau_fixup_idx(
                snap, chosen, centers[k], dist, None, None, False, rest.tolist()
            )


def _level_tree_eids_scipy(
    snap,
    kernels,
    chosen: Set[int],
    centers: List[int],
    phi_np,
    base_data=None,
    alive_np=None,
) -> None:
    """All cluster trees of one hierarchy level via the compiled kernels.

    ``base_data`` overrides the weight vector (the CLPR loop passes
    fault-masked weights, with ``inf`` on every half-edge incident to a
    faulted vertex); ``alive_np`` is the matching survivor mask, used
    only to decide whether ``φ`` is finite on every *surviving* vertex —
    the condition for the Johnson-primed limited search. Faulted
    vertices never pass any membership or tightness test because their
    distances are ``inf`` on every path.
    """
    if phi_np is not None:
        finite = np.isfinite(phi_np) if alive_np is None else (
            np.isfinite(phi_np) | ~alive_np
        )
        primed = bool(finite.all())
    else:
        primed = False
    if not primed:
        rows = kernels.sssp_rows(centers, data=base_data)
        if phi_np is None:
            _extract_unrestricted(snap, chosen, centers, rows)
        else:
            _extract_restricted(snap, chosen, centers, rows, phi_np, phi_np, False)
        return
    _indptr, nbr, wt, _eid, _deg = snap.half_arrays_np()
    h_src = kernels.half_sources()
    phi0 = np.where(np.isfinite(phi_np), phi_np, 0.0) if alive_np is not None else phi_np
    raw = wt if base_data is None else base_data
    data = (raw + phi0[h_src]) - phi0[nbr]
    radii = phi_np[centers]
    by_radius = sorted(range(len(centers)), key=lambda k: (radii[k], k))
    for lo in range(0, len(by_radius), _CHUNK):
        batch = [centers[k] for k in by_radius[lo : lo + _CHUNK]]
        limit = float(phi_np[batch].max())
        rows = kernels.sssp_rows(batch, limit=limit, data=data)
        _extract_restricted(snap, chosen, batch, rows, phi_np, phi0, True)


def _plateau_fixup_idx(
    snap, chosen: Set[int], center: int, dist_row, phi_true, phi_prime, primed, rest
) -> None:
    """Index-space twin of the dict path's plateau sweep (same order)."""
    indptr, nbr, wt, eid = snap.indptr, snap.nbr, snap.wt, snap.eid
    if primed:
        cut = phi_true[center]
        member = lambda u: dist_row[u] < cut  # noqa: E731
    elif phi_true is not None:
        member = lambda u: dist_row[u] < phi_true[u]  # noqa: E731
    else:
        member = lambda u: dist_row[u] != INF  # noqa: E731
    restset = set(rest)
    rest = sorted(rest, key=lambda v: (dist_row[v], v))
    progress = True
    while rest and progress:
        progress = False
        leftover = []
        for v in rest:
            dv = dist_row[v]
            pv = phi_prime[v] if primed else 0.0
            parent = -1
            parent_eid = -1
            for e in range(indptr[v], indptr[v + 1]):
                u = nbr[e]
                if u in restset or not member(u):
                    continue
                du = dist_row[u]
                if du != dv:
                    continue
                wp = (wt[e] + phi_prime[u]) - pv if primed else wt[e]
                if du + wp == dv and (parent < 0 or u < parent):
                    parent = u
                    parent_eid = eid[e]
            if parent >= 0:
                chosen.add(parent_eid)
                restset.discard(v)
                progress = True
            else:
                leftover.append(v)
        rest = leftover


def _thorup_zwick_csr(
    graph: BaseGraph, t: int, vertices: List[Vertex], levels: List[Set[Vertex]]
) -> BaseGraph:
    """CSR fast path: one snapshot, compiled level passes, edge-id union."""
    snap = snapshot(graph)
    index = snap.index
    kernels = snap.scipy_kernels()
    chosen: Set[int] = set()
    for i in range(t):
        phi_np = None
        if levels[i + 1]:
            sources = sorted(index[v] for v in levels[i + 1])
            phi_np = kernels.multi_source(sources)
        centers = [index[w] for w in _level_centers(vertices, levels, i)]
        if not centers:
            continue
        _level_tree_eids_scipy(snap, kernels, chosen, centers, phi_np)
    return snap.materialize_edge_ids(sorted(chosen))


def thorup_zwick_spanner(
    graph: BaseGraph,
    t: int,
    seed: RandomLike = None,
    sample_probability: Optional[float] = None,
    *,
    method: str = "auto",
) -> BaseGraph:
    """Build a Thorup–Zwick ``(2t - 1)``-spanner.

    Parameters
    ----------
    graph:
        Undirected weighted graph.
    t:
        Hierarchy depth; the stretch is ``2t - 1`` and the expected size is
        ``O(t · n^{1+1/t})``.
    seed:
        Randomness for the level sampling.
    sample_probability:
        Override the per-level survival probability (default ``n^{-1/t}``).
    method:
        ``"auto"`` (default), ``"csr"``, or ``"dict"`` — see
        :func:`repro.graph.csr.resolve_method`. Both paths produce the
        same spanner for a fixed seed. ``"auto"`` runs directed graphs on
        the dict path.
    """
    if t < 1:
        raise InvalidStretch(f"hierarchy depth t must be >= 1, got {t}")
    # TZ's compiled path needs reverse traversal the directed snapshot
    # does not store: auto-dispatch runs digraphs on the dict path, and
    # an explicit method="csr" on a digraph raises instead of degrading.
    resolved = resolve_method(
        method, graph.num_vertices,
        directed=graph.directed, directed_csr=False,
    )
    rng = ensure_rng(seed)
    vertices = list(graph.vertices())
    if not vertices:
        return type(graph)()

    levels = sample_hierarchy(vertices, t, rng, sample_probability)
    if resolved == "csr":
        return _thorup_zwick_csr(graph, t, vertices, levels)
    return _thorup_zwick_dict(graph, t, vertices, levels)


@register_algorithm(
    "thorup-zwick",
    summary="Thorup–Zwick (2t-1)-spanner (the CLPR09 building block)",
    stretch_domain="odd integers 2t-1 (3, 5, 7, ...)",
    weighted=True,
    directed=False,
    csr_path=True,
    stretch_kind="odd",
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> thorup_zwick_spanner``."""
    from ..spec import stretch_to_levels

    spanner = thorup_zwick_spanner(
        graph,
        stretch_to_levels(spec),
        seed=seed,
        sample_probability=spec.param("sample_probability"),
        method=spec.method,
    )
    return spanner, {}
