"""The greedy k-spanner of Althöfer, Das, Dobkin, Joseph, and Soares.

This is the "standard greedy spanner construction" the paper plugs into its
conversion theorem (Corollary 2.2). The algorithm is Kruskal-like:

    sort edges by nondecreasing weight;
    for each edge (u, v, w):
        if d_H(u, v) > k * w in the spanner built so far:
            add (u, v) to the spanner

The output is always a k-spanner, and for odd ``k`` its girth exceeds
``k + 1``, which by the Moore bound implies size ``O(n^{1 + 2/(k+1)})`` —
the ``f(n)`` that Theorem 2.1 consumes.

Implementation: edges are sorted once, vertices are mapped to integer
indices once, and the per-edge bounded distance query runs against a
mutable indexed adjacency (lists of ``(neighbour, weight)`` pairs) with
stamped distance arrays — no dict graph is built or hashed until the final
spanner is materialized. ``method="dict"`` forces the original
dict-of-dict implementation; the equivalence of the two paths is covered
by property tests.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Hashable, List, Optional, Tuple

from ..errors import InvalidStretch
from ..graph.csr import METHODS
from ..graph.graph import BaseGraph
from ..graph.paths import distance_at_most
from ..registry import register_algorithm

Vertex = Hashable

#: Relative slack applied to distance bounds for float safety; matches
#: :func:`repro.graph.paths.distance_at_most` exactly so the indexed and
#: dict paths make identical keep/skip decisions.
_EPS = 1e-12


class IndexedGreedyKernel:
    """Reusable state for running greedy spanners in index space.

    Holds the vertex↔index tables and the stamped scratch arrays; one
    instance can run many greedy passes over (subsets of) the same indexed
    edge list, which is what the Theorem 2.1 conversion loop needs — the
    ``α = Θ(r³ log n)`` iterations share a single indexing of the host.
    """

    __slots__ = ("n", "directed", "_dist_f", "_stamp_f", "_dist_b", "_stamp_b", "_gen")

    def __init__(self, n: int, directed: bool):
        self.n = n
        self.directed = directed
        self._dist_f: List[float] = [inf] * n
        self._stamp_f: List[int] = [0] * n
        self._dist_b: List[float] = [inf] * n
        self._stamp_b: List[int] = [0] * n
        self._gen = 0

    def _reachable_within(
        self,
        adj: List[List[Tuple[int, float]]],
        radj: List[List[Tuple[int, float]]],
        source: int,
        target: int,
        bound: float,
    ) -> bool:
        """True iff the partial spanner has d(source, target) <= bound.

        Bounded *bidirectional* Dijkstra: balls of radius ~bound/2 grow
        from both endpoints instead of one ball of radius bound, which is
        exponentially smaller on expander-like spanners. Generation-stamped
        arrays avoid O(n) clears between the m queries of one greedy pass.

        The boolean decision is exact. Any relaxation that lands on a
        vertex labeled by the opposite search certifies a real path of
        length ``d_f + d_b``; the first certificate <= bound returns True
        (labels are real path lengths, so no optimality is needed). For
        False, the scan only stops once ``top_f + top_b > bound``: if a
        path of length L <= bound existed, both searches reach their final
        labels on its midpoint before their frontier minima pass L, and
        whichever side labels it last performs the meeting check against
        the other side's already-final label — so True would have fired.
        """
        self._gen += 1
        gen = self._gen
        dist_f, stamp_f = self._dist_f, self._stamp_f
        dist_b, stamp_b = self._dist_b, self._stamp_b
        dist_f[source] = 0.0
        stamp_f[source] = gen
        dist_b[target] = 0.0
        stamp_b[target] = gen
        heap_f: List[Tuple[float, int]] = [(0.0, source)]
        heap_b: List[Tuple[float, int]] = [(0.0, target)]
        push = heapq.heappush
        pop = heapq.heappop
        while True:
            # Drop stale entries so the heap tops are true frontier minima.
            while heap_f and heap_f[0][0] > dist_f[heap_f[0][1]]:
                pop(heap_f)
            if not heap_f:
                return False  # forward ball exhausted without meeting
            while heap_b and heap_b[0][0] > dist_b[heap_b[0][1]]:
                pop(heap_b)
            if not heap_b:
                return False
            top_f = heap_f[0][0]
            top_b = heap_b[0][0]
            if top_f + top_b > bound:
                return False
            if top_f <= top_b:
                d, v = pop(heap_f)
                for u, w in adj[v]:
                    nd = d + w
                    if nd > bound:
                        continue
                    if stamp_b[u] == gen and nd + dist_b[u] <= bound:
                        return True
                    if stamp_f[u] != gen:
                        dist_f[u] = nd
                        stamp_f[u] = gen
                        push(heap_f, (nd, u))
                    elif nd < dist_f[u]:
                        dist_f[u] = nd
                        push(heap_f, (nd, u))
            else:
                d, v = pop(heap_b)
                for u, w in radj[v]:
                    nd = d + w
                    if nd > bound:
                        continue
                    if stamp_f[u] == gen and nd + dist_f[u] <= bound:
                        return True
                    if stamp_b[u] != gen:
                        dist_b[u] = nd
                        stamp_b[u] = gen
                        push(heap_b, (nd, u))
                    elif nd < dist_b[u]:
                        dist_b[u] = nd
                        push(heap_b, (nd, u))

    def run(
        self,
        edges: List[Tuple[int, int, float]],
        k: float,
        max_edges: Optional[int] = None,
    ) -> List[Tuple[int, int, float]]:
        """Greedy pass over ``edges`` (already sorted by weight).

        Returns the chosen edges in pick order. ``max_edges`` truncates the
        output (the size-first ablation).
        """
        edge_u = [e[0] for e in edges]
        edge_v = [e[1] for e in edges]
        edge_w = [e[2] for e in edges]
        chosen = self.run_edge_ids(
            range(len(edges)), edge_u, edge_v, edge_w, k, max_edges=max_edges
        )
        return [edges[e] for e in chosen]

    def run_edge_ids(
        self,
        edge_ids,
        edge_u: List[int],
        edge_v: List[int],
        edge_w: List[float],
        k: float,
        max_edges: Optional[int] = None,
    ) -> List[int]:
        """Greedy pass addressing edges by id into parallel endpoint arrays.

        ``edge_ids`` must come pre-sorted by weight. This is the conversion
        loop's entry point: survivor subsamples are just id sequences, so no
        per-iteration edge tuples are materialized.
        """
        adj: List[List[Tuple[int, float]]] = [[] for _ in range(self.n)]
        radj = [[] for _ in range(self.n)] if self.directed else adj
        chosen: List[int] = []
        directed = self.directed
        for e in edge_ids:
            if max_edges is not None and len(chosen) >= max_edges:
                break
            ui = edge_u[e]
            vi = edge_v[e]
            w = edge_w[e]
            # An endpoint with no spanner edges yet is unreachable: skip
            # the query.
            if (
                not adj[ui]
                or not radj[vi]
                or not self._reachable_within(
                    adj, radj, ui, vi, (k * w) * (1 + _EPS)
                )
            ):
                chosen.append(e)
                adj[ui].append((vi, w))
                if directed:
                    radj[vi].append((ui, w))
                else:
                    adj[vi].append((ui, w))
        return chosen


def _greedy_indexed(
    graph: BaseGraph, k: float, max_edges: Optional[int], resolved: str = "csr"
) -> BaseGraph:
    verts = list(graph.vertices())
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v], w) for u, v, w in graph.edges()]
    edges.sort(key=lambda e: e[2])  # stable: ties keep edges() order
    if resolved == "compiled":
        from ..compiled.greedy import CompiledGreedyKernel

        kernel = CompiledGreedyKernel(len(verts), graph.directed)
    else:
        kernel = IndexedGreedyKernel(len(verts), graph.directed)
    chosen = kernel.run(edges, k, max_edges=max_edges)
    spanner = type(graph)()
    spanner.add_vertices(verts)
    for ui, vi, w in chosen:
        spanner.add_edge(verts[ui], verts[vi], w)
    return spanner


def _check_method(method: str) -> str:
    """Normalize the shared ``method`` kwarg for the greedy entry points.

    Accepts exactly :data:`repro.graph.csr.METHODS`. The greedy kernel has
    no snapshot overhead (it indexes once and never builds a CSR), so
    dispatch ignores graph size: ``"csr"`` is the interpreted index-space
    kernel, and ``"auto"`` resolves to the compiled kernel whenever the
    optional C backend (:mod:`repro.compiled`) is available — falling
    back to ``"csr"`` silently when it is not. An explicit ``"compiled"``
    raises :class:`repro.errors.CompiledBackendUnavailable` instead of
    downgrading.
    """
    if method == "auto":
        from ..compiled import compiled_available

        return "compiled" if compiled_available() else "csr"
    if method == "compiled":
        from ..compiled import require_compiled

        require_compiled()
        return "compiled"
    if method in METHODS:
        return method
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def _greedy_dict(graph: BaseGraph, k: float, max_edges: Optional[int]) -> BaseGraph:
    """Reference dict-of-dict implementation (kept for equivalence tests)."""
    spanner = type(graph)()
    spanner.add_vertices(graph.vertices())
    for u, v, w in sorted(graph.edges(), key=lambda e: e[2]):
        if max_edges is not None and spanner.num_edges >= max_edges:
            break
        if not distance_at_most(spanner, u, v, k * w):
            spanner.add_edge(u, v, w)
    return spanner


def greedy_spanner(graph: BaseGraph, k: float, *, method: str = "csr") -> BaseGraph:
    """Build a greedy ``k``-spanner of ``graph``.

    Parameters
    ----------
    graph:
        Undirected graph with nonnegative weights. (Directed graphs are
        accepted and handled arc-by-arc, though the classical size bound is
        stated for the undirected case.)
    k:
        Stretch bound, ``k >= 1``.
    method:
        One of :data:`repro.graph.csr.METHODS`. ``"csr"`` (default)
        runs the interpreted flat-array kernel; ``"auto"`` upgrades to
        the compiled C kernel (``"compiled"`` requests it explicitly,
        raising when the backend is unavailable) whenever
        :mod:`repro.compiled` loads, and ``"dict"`` forces the original
        dict-graph implementation. All tiers produce the same spanner:
        the compiled kernel replays the interpreted kernel's float
        operations exactly, edge ties are broken by the same stable
        sort, and the csr/dict keep/skip decisions agree — exactly on
        unit/integer weights, and up to float summation order otherwise
        (the bidirectional kernel sums path halves separately, so a path
        length within an ulp of the ``k·w`` slack boundary could in
        principle — measure zero for continuous random weights — round
        differently).

    Returns
    -------
    A spanning subgraph ``H`` with ``d_H(u, v) <= k * w`` for every edge
    ``(u, v, w)`` of ``graph`` — hence a k-spanner of ``graph``.
    """
    if not k >= 1:  # NaN fails every comparison
        raise InvalidStretch(f"stretch must be >= 1, got {k}")
    resolved = _check_method(method)
    if resolved == "dict":
        return _greedy_dict(graph, k, None)
    return _greedy_indexed(graph, k, None, resolved)


def greedy_spanner_size_first(
    graph: BaseGraph, k: float, max_edges: int, *, method: str = "csr"
) -> BaseGraph:
    """Greedy spanner truncated at ``max_edges`` edges.

    Useful for ablations that trade stretch for size: the returned subgraph
    contains the ``max_edges`` greedily-chosen lightest necessary edges and
    is a valid k-spanner only if the budget was not exhausted.
    """
    if not k >= 1:  # NaN fails every comparison
        raise InvalidStretch(f"stretch must be >= 1, got {k}")
    if max_edges < 0:
        raise ValueError(f"max_edges must be nonnegative, got {max_edges}")
    resolved = _check_method(method)
    if resolved == "dict":
        return _greedy_dict(graph, k, max_edges)
    return _greedy_indexed(graph, k, max_edges, resolved)


@register_algorithm(
    "greedy",
    summary="ADD+93 greedy k-spanner (the Corollary 2.2 base construction)",
    stretch_domain="any real k >= 1",
    weighted=True,
    directed=True,
    csr_path=True,
    compiled_path=True,
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> greedy_spanner`` (deterministic)."""
    max_edges = spec.param("max_edges")
    if max_edges is not None:
        spanner = greedy_spanner_size_first(
            graph, spec.stretch, max_edges, method=spec.method
        )
    else:
        spanner = greedy_spanner(graph, spec.stretch, method=spec.method)
    # Greedy has no snapshot to amortize, so its interpreted (or
    # compiled) kernel runs at every size — report the true path, not
    # the generic size rule.
    return spanner, {"resolved_method": _check_method(spec.method)}
