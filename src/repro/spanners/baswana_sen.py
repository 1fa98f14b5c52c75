"""Baswana–Sen randomized (2k-1)-spanner via iterated clustering.

The algorithm runs ``k - 1`` clustering phases followed by a joining phase
and produces a ``(2k-1)``-spanner of expected size ``O(k · n^{1+1/k})`` on
weighted undirected graphs. Unlike the greedy spanner it makes only *local*
decisions (each vertex looks at its incident edges and the cluster labels
of its neighbours), which is why Section 2's distributed corollary can use
a clustering spanner as its base construction; the LOCAL-model version in
:mod:`repro.distributed.local_spanner` mirrors this code phase by phase.

Implementation follows Baswana & Sen, "A simple and linear time randomized
algorithm for computing sparse spanners in weighted graphs" (RSA 2007),
in its *simultaneous-rounds* form: within a phase every vertex decides
from the phase-start edge set and cluster labels, and all resulting edge
discards are applied together at the end of the phase — exactly the
semantics of the distributed version, and the form in which a phase is
one batched array computation.

Execution paths (dispatch rule: :func:`repro.graph.csr.resolve_method`):

* ``method="csr"`` runs each phase as whole-array passes over the
  half-edge CSR arrays: a scatter-min into a dense
  ``(vertex × surviving-cluster)`` buffer finds every per-(vertex,
  cluster) lightest edge (the first, all-singleton phase needs only
  per-slice reductions), grouped min-reductions pick each vertex's join,
  and buys/discards are boolean-mask writes into one aliveness array;
* ``method="dict"`` is the reference dict-of-dict implementation (a
  pruned ``{v: {u: w}}`` working edge map).

Both paths consume the RNG stream identically — one Bernoulli draw per
surviving cluster center, in host vertex order — and break every tie
canonically: the lightest edge into a cluster prefers the smaller-order
endpoint, and the joined cluster minimizes ``(weight, center order)``.
A fixed seed therefore yields the same spanner edge set on either path
(property-tested), and runs are reproducible across processes regardless
of hash randomization.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from ..errors import InvalidStretch
from ..graph.csr import resolve_method, snapshot
from ..graph.graph import Graph
from ..registry import register_algorithm
from ..rng import RandomLike, ensure_rng

Vertex = Hashable

#: Above this many dense (vertex × cluster) buckets the scatter-min
#: grouping compacts the occupied packed keys instead, keeping phase
#: memory O(m) rather than O(n · surviving clusters).
_DENSE_BUCKET_CAP = 1 << 23


def _lightest_edges_per_cluster(
    edges: Dict[Vertex, Dict[Vertex, float]],
    v: Vertex,
    cluster_of: Dict[Vertex, Vertex],
    order: Dict[Vertex, int],
) -> Dict[Vertex, Tuple[Vertex, float]]:
    """For vertex ``v``, the lightest incident edge into each neighbouring cluster.

    Returns ``{cluster_center: (neighbor, weight)}`` over clustered
    neighbours of ``v`` (unclustered neighbours are ignored — their edges
    were already resolved in an earlier phase). Ties prefer the
    smaller-order neighbour, matching the CSR path.
    """
    best: Dict[Vertex, Tuple[Vertex, float]] = {}
    for u, w in edges[v].items():
        c = cluster_of.get(u)
        if c is None:
            continue
        cur = best.get(c)
        if cur is None or (w, order[u]) < (cur[1], order[cur[0]]):
            best[c] = (u, w)
    return best


def _baswana_sen_dict(graph: Graph, k: int, p: float, rng) -> Graph:
    """Reference dict-of-dict implementation (kept for equivalence tests)."""
    spanner = Graph()
    spanner.add_vertices(graph.vertices())
    vertices = list(graph.vertices())
    order = {v: i for i, v in enumerate(vertices)}

    # Working edge set, pruned at phase boundaries as edges are resolved.
    edges: Dict[Vertex, Dict[Vertex, float]] = {
        v: dict(graph.neighbor_items(v)) for v in vertices
    }

    def _apply_discards(pending: List[Tuple[Vertex, Set[Vertex]]], cluster_of) -> None:
        for v, kill in pending:
            for u2 in [u2 for u2 in edges[v] if cluster_of.get(u2) in kill]:
                edges[v].pop(u2, None)
                edges[u2].pop(v, None)

    # cluster_of[v] = center of v's cluster in the current clustering.
    cluster_of: Dict[Vertex, Vertex] = {v: v for v in vertices}

    for _phase in range(k - 1):
        present = {c for c in cluster_of.values()}
        sampled = set()
        for c in vertices:  # canonical order: host vertex order
            if c in present and rng.random() < p:
                sampled.add(c)
        new_cluster_of: Dict[Vertex, Vertex] = {}
        for v, c in cluster_of.items():
            if c in sampled:
                new_cluster_of[v] = c

        pending: List[Tuple[Vertex, Set[Vertex]]] = []
        for v in vertices:
            c0 = cluster_of.get(v)
            if c0 is None or c0 in sampled:
                continue
            best = _lightest_edges_per_cluster(edges, v, cluster_of, order)
            sampled_options = {c: e for c, e in best.items() if c in sampled}
            if sampled_options:
                # Join the nearest sampled cluster through its lightest
                # edge; ties prefer the smaller-order center.
                join_center, (join_nbr, join_w) = min(
                    sampled_options.items(),
                    key=lambda item: (item[1][1], order[item[0]]),
                )
                spanner.add_edge(v, join_nbr, join_w)
                new_cluster_of[v] = join_center
                kill = {join_center}
                # Buy one edge into every strictly-closer cluster and
                # resolve those edges; edges into clusters whose lightest
                # edge is >= the join edge survive to the next phase.
                for c, (u, w) in best.items():
                    if c != join_center and w < join_w:
                        spanner.add_edge(v, u, w)
                        kill.add(c)
                pending.append((v, kill))
            elif best:
                # No sampled neighbour: buy one lightest edge per cluster
                # and leave the clustering permanently.
                for _c, (u, w) in best.items():
                    spanner.add_edge(v, u, w)
                pending.append((v, set(best)))
        _apply_discards(pending, cluster_of)
        cluster_of = new_cluster_of

    # Final joining phase: every vertex buys its lightest edge into each
    # surviving cluster it touches.
    pending = []
    for v in vertices:
        best = _lightest_edges_per_cluster(edges, v, cluster_of, order)
        if not best:
            continue
        for _c, (u, w) in best.items():
            spanner.add_edge(v, u, w)
        pending.append((v, set(best)))
    _apply_discards(pending, cluster_of)
    return spanner


def _group_min(values, head_pos, counts):
    """Min of ``values`` per contiguous group, expanded back per element."""
    return np.repeat(np.minimum.reduceat(values, head_pos), counts)


def _baswana_sen_csr(graph: Graph, k: int, p: float, rng) -> Graph:
    """CSR fast path: one aliveness mask + whole-array phases.

    Phase 0 runs entirely in slice space (singleton clusters); later
    phases group the alive clustered half-edges per (vertex, cluster)
    with a scatter-min into a dense compact-label buffer, pick each
    vertex's join with grouped min-reductions, and apply every
    buy/discard with boolean masks. No per-edge python. Output is pinned
    identical to the dict path.
    """
    snap = snapshot(graph)
    n = snap.num_vertices
    m = snap.num_edges
    indptr, nbr, wt, eid, deg = snap.half_arrays_np()
    h_src = np.repeat(np.arange(n, dtype=np.int32), deg)
    alive = np.ones(m, dtype=bool)
    cluster = np.arange(n, dtype=np.int32)
    chosen = np.zeros(m, dtype=bool)
    n64 = np.int64(n)

    # ``reduceat`` cannot express empty slices (a trailing one even
    # raises), so the per-vertex reductions run over the nonzero-degree
    # starts — a zero-width slice occupies no elements, so dropping its
    # start leaves every other segment unchanged — and isolated vertices
    # get the neutral value explicitly.
    zero_deg = deg == 0
    any_zero_deg = bool(zero_deg.any())
    nz_starts = indptr[:-1][~zero_deg] if any_zero_deg else indptr[:-1]
    has_edges = len(nz_starts) > 0

    def _per_vertex_min(values, neutral, dtype):
        out = np.full(n, neutral, dtype=dtype)
        if has_edges:
            out[~zero_deg] = np.minimum.reduceat(values, nz_starts)
        return out

    def run_phase0(sampled):
        """The first clustering round, fully in slice space.

        Every cluster is a single vertex and every edge is alive, so the
        per-(vertex, cluster) structure *is* the CSR slice structure:
        each vertex's join choice is one masked ``reduceat`` over its
        half-edge slice, and the bought set is a weight-threshold mask.
        Returns (joined vertices, joined centers).
        """
        s_nbr = sampled[nbr]
        key = np.where(s_nbr, wt, np.inf)
        jw = _per_vertex_min(key, np.inf, np.float64)
        jw_rep = np.repeat(jw, deg)
        jtie = s_nbr & (key == jw_rep)
        ju = _per_vertex_min(np.where(jtie, nbr, np.int32(n)), n, np.int32)
        join_half = jtie & (nbr == np.repeat(ju, deg))
        proc_rep = np.repeat(~sampled, deg)
        bought = proc_rep & ((wt < jw_rep) | join_half)
        e_sel = eid[bought]
        chosen[e_sel] = True
        alive[e_sel] = False
        has_join = ~sampled & np.isfinite(jw)
        join_v = np.nonzero(has_join)[0].astype(np.int32)
        return join_v, ju[has_join]

    def run_phase(sampled, process):
        """One round: decisions from phase-start state, batched discards.

        ``sampled`` is None for the final joining phase (buy into every
        neighbouring cluster). Grouping is a scatter-min into a dense
        ``(vertex × surviving-cluster)`` buffer — clusters thin out
        geometrically, so the buffer shrinks phase over phase and nothing
        is ever sorted. Returns (joined vertices, joined centers).
        """
        # Compact the surviving cluster centers to labels 0..nc-1; slot
        # n of the lookup serves cluster label -1 (fancy index -1 wraps
        # to it), so no branching pass is needed.
        present = np.unique(cluster[cluster >= 0])
        nc = len(present)
        if nc == 0:
            return None, None
        label = np.full(n + 1, -1, dtype=np.int32)
        label[present] = np.arange(nc, dtype=np.int32)
        c_nbr = label[cluster][nbr]
        # Invalid half-edges (dead, unclustered neighbour, inactive
        # source) all pack into one sentinel bucket instead of being
        # compressed out — cheaper than a nonzero + four gathers.
        valid = alive[eid]
        valid &= c_nbr >= 0
        if process is not None:
            valid &= np.repeat(process, deg)
        sentinel_pack = np.int64(n) * np.int64(nc)
        pack = np.where(
            valid, h_src.astype(np.int64) * np.int64(nc) + c_nbr, sentinel_pack
        )
        # Canonical lightest edge per (vertex, cluster): scatter-min the
        # weight, then the neighbour among weight ties; the
        # (vertex, cluster, neighbour) triple is unique, so the edge id
        # follows by plain assignment. The sentinel bucket keeps inf /
        # garbage values that no later step reads. Buckets are the dense
        # pack values while ``n·nc`` stays small (it shrinks with the
        # surviving clusters); past the cap, compact the occupied packs
        # instead so memory stays O(m) — the dict path's bound.
        if n * nc + 1 <= _DENSE_BUCKET_CAP:
            buckets = pack
            nbuckets = n * nc + 1
            pack_of_bucket = None
        else:
            pack_of_bucket, buckets = np.unique(pack, return_inverse=True)
            nbuckets = len(pack_of_bucket)
        buf_w = np.full(nbuckets, np.inf)
        np.minimum.at(buf_w, buckets, wt)
        tie = wt == buf_w[buckets]
        buf_u = np.full(nbuckets, np.int32(n), dtype=np.int32)
        np.minimum.at(buf_u, buckets[tie], nbr[tie])
        exact = tie.copy()
        exact[tie] = nbr[tie] == buf_u[buckets[tie]]
        buf_e = np.empty(nbuckets, dtype=np.int32)
        buf_e[buckets[exact]] = eid[exact]
        if pack_of_bucket is None:
            buf_w[sentinel_pack] = np.inf
            gid = np.nonzero(np.isfinite(buf_w[:-1]))[0]
            gpack = gid
        else:
            occupied = np.isfinite(buf_w) & (pack_of_bucket != sentinel_pack)
            gid = np.nonzero(occupied)[0]
            gpack = pack_of_bucket[gid]
        g_src = (gpack // nc).astype(np.int32)
        g_clu = present[gpack % nc]
        g_w = buf_w[gid]
        g_eid = buf_e[gid]
        if sampled is None:
            bought = np.ones(len(g_src), dtype=bool)
            join_v = join_c = None
        else:
            # Vertex-level grouped min over this vertex's sampled
            # clusters: join weight first, then the smaller center.
            # Groups are vertex-major by construction.
            vheads = np.ones(len(g_src), dtype=bool)
            vheads[1:] = g_src[1:] != g_src[:-1]
            vhead_pos = np.nonzero(vheads)[0]
            vcounts = np.diff(np.append(vhead_pos, len(g_src)))
            s_ok = sampled[g_clu]
            jw_key = np.where(s_ok, g_w, np.inf)
            x_jw = _group_min(jw_key, vhead_pos, vcounts)
            jtie = s_ok & (g_w == x_jw)
            jc_key = np.where(jtie, g_clu, n64)
            x_jc = _group_min(jc_key, vhead_pos, vcounts)
            has_join = np.isfinite(x_jw)
            bought = ~has_join | (g_clu == x_jc) | (g_w < x_jw)
            joined = has_join & (g_clu == x_jc)
            join_v = g_src[joined]
            join_c = g_clu[joined]
        chosen[g_eid[bought]] = True
        kill_flat = np.zeros(nbuckets, dtype=bool)
        kill_flat[gid[bought]] = True
        alive[eid[kill_flat[buckets]]] = False
        return join_v, join_c

    for _phase in range(k - 1):
        present = np.unique(cluster[cluster >= 0]).tolist()
        sampled = np.zeros(n, dtype=bool)
        for c in present:
            if rng.random() < p:
                sampled[c] = True
        if _phase == 0:
            join_v, join_c = run_phase0(sampled)
        else:
            process = (cluster >= 0) & ~sampled[np.maximum(cluster, 0)]
            join_v, join_c = run_phase(sampled, process)
        new_cluster = np.where(
            (cluster >= 0) & sampled[np.maximum(cluster, 0)], cluster, np.int32(-1)
        )
        if join_v is not None and len(join_v):
            new_cluster[join_v] = join_c
        cluster = new_cluster

    run_phase(None, None)
    return snap.materialize_edge_ids(np.nonzero(chosen)[0].tolist())


def baswana_sen_spanner(
    graph: Graph,
    k: int,
    seed: RandomLike = None,
    sample_probability: Optional[float] = None,
    *,
    method: str = "auto",
) -> Graph:
    """Build a Baswana–Sen ``(2k - 1)``-spanner of an undirected graph.

    Parameters
    ----------
    graph:
        Undirected weighted graph.
    k:
        Number of levels; stretch is ``2k - 1`` (so ``k = 2`` gives a
        3-spanner). Must be >= 1; ``k = 1`` returns a copy of the graph.
    seed:
        Randomness for cluster sampling.
    sample_probability:
        Per-phase cluster survival probability (default ``n^{-1/k}``).
    method:
        ``"auto"`` (default), ``"csr"``, or ``"dict"`` — see
        :func:`repro.graph.csr.resolve_method`. Both paths produce the
        same spanner for a fixed seed.
    """
    if graph.directed:
        raise InvalidStretch("Baswana-Sen requires an undirected graph")
    if k < 1:
        raise InvalidStretch(f"k must be >= 1, got {k}")
    resolved = resolve_method(method, graph.num_vertices)
    if k == 1:
        return graph.copy()
    rng = ensure_rng(seed)
    n = graph.num_vertices
    if n == 0:
        return Graph()
    p = sample_probability if sample_probability is not None else n ** (-1.0 / k)
    if resolved == "csr":
        return _baswana_sen_csr(graph, k, p, rng)
    return _baswana_sen_dict(graph, k, p, rng)


@register_algorithm(
    "baswana-sen",
    summary="Baswana–Sen randomized (2t-1)-spanner (the distributed base)",
    stretch_domain="odd integers 2t-1 (3, 5, 7, ...)",
    weighted=True,
    directed=False,
    csr_path=True,
    stretch_kind="odd",
)
def _registry_build(graph: Graph, spec, seed):
    """Spec adapter: ``SpannerSpec -> baswana_sen_spanner``."""
    from ..spec import stretch_to_levels

    spanner = baswana_sen_spanner(
        graph,
        stretch_to_levels(spec),
        seed=seed,
        sample_probability=spec.param("sample_probability"),
        method=spec.method,
    )
    return spanner, {}
