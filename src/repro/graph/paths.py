"""Shortest-path algorithms over :class:`~repro.graph.graph.BaseGraph`.

These routines back every stretch computation in the library: the greedy
spanner queries bounded-distance Dijkstra millions of times, and the
fault-tolerance verifiers compare distances in ``H \\ F`` against ``G \\ F``.

All functions treat edge weights as nonnegative *lengths*; ``math.inf``
denotes unreachability.

Dispatch: on graphs large enough to amortize a snapshot
(:data:`repro.graph.csr.MIN_DISPATCH_VERTICES` vertices), the entry points
below transparently run on the flat-array CSR kernels of
:mod:`repro.graph.csr` — same signatures, same distances and reached
sets, no per-edge hashing. Snapshots are cached on the graph and
invalidated by mutation, so repeated queries (all-pairs sweeps, spanner
verification) pay the O(n + m) conversion once. Small graphs keep the
dict implementations, whose behavior is unchanged.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import VertexNotFound
from .csr import maybe_snapshot
from .graph import BaseGraph

Vertex = Hashable

INF = math.inf


def _out_items(graph: BaseGraph, v: Vertex):
    """(neighbour, weight) pairs reachable from ``v`` in one hop."""
    if graph.directed:
        return graph.successor_items(v)  # type: ignore[attr-defined]
    return graph.neighbor_items(v)  # type: ignore[attr-defined]


def dijkstra(
    graph: BaseGraph,
    source: Vertex,
    cutoff: Optional[float] = None,
    target: Optional[Vertex] = None,
) -> Dict[Vertex, float]:
    """Single-source shortest path distances from ``source``.

    Parameters
    ----------
    graph:
        Graph or digraph with nonnegative weights.
    cutoff:
        If given, vertices at distance strictly greater than ``cutoff``
        are not settled or reported. This is the key optimization for the
        greedy spanner, which only asks "is d(u, v) > k * w?".
    target:
        If given, the search stops as soon as ``target`` is settled.

    Returns
    -------
    dict mapping each reached vertex to its distance from ``source``.
    """
    if not graph.has_vertex(source):
        raise VertexNotFound(source)
    bounded = cutoff is not None or target is not None
    csr = maybe_snapshot(graph, build=not bounded)
    if csr is not None:
        return csr.dijkstra_dict(source, cutoff=cutoff, target=target)
    dist: Dict[Vertex, float] = {}
    heap: List[Tuple[float, int, Vertex]] = [(0.0, 0, source)]
    counter = 1  # tie-break so heterogeneous vertex types never get compared
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if target is not None and v == target:
            break
        for u, w in _out_items(graph, v):
            if u in dist:
                continue
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            heapq.heappush(heap, (nd, counter, u))
            counter += 1
    return dist


def bfs_distances(
    graph: BaseGraph, source: Vertex, cutoff: Optional[int] = None
) -> Dict[Vertex, int]:
    """Hop distances from ``source`` (ignores weights).

    Used for cluster diameters in the distributed algorithms, where the
    LOCAL model measures everything in hops.
    """
    if not graph.has_vertex(source):
        raise VertexNotFound(source)
    csr = maybe_snapshot(graph, build=cutoff is None)
    if csr is not None:
        return csr.bfs_dict(source, cutoff=cutoff)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u, _ in _out_items(graph, v):
            if u not in dist:
                dist[u] = d + 1
                queue.append(u)
    return dist


def distance(graph: BaseGraph, u: Vertex, v: Vertex) -> float:
    """Shortest-path distance ``d_G(u, v)``; ``inf`` if unreachable."""
    return dijkstra(graph, u, target=v).get(v, INF)


def distance_at_most(graph: BaseGraph, u: Vertex, v: Vertex, bound: float) -> bool:
    """Return True iff ``d_G(u, v) <= bound``.

    Runs Dijkstra with cutoff ``bound`` and early target termination, so it
    is much cheaper than a full SSSP when the answer is yes-and-close or
    no-by-a-lot. Tolerates a tiny relative epsilon for float safety.
    """
    slack = bound * (1 + 1e-12)
    return dijkstra(graph, u, cutoff=slack, target=v).get(v, INF) <= slack


def all_pairs_distances(graph: BaseGraph) -> Dict[Vertex, Dict[Vertex, float]]:
    """All-pairs shortest path distances via repeated Dijkstra."""
    return {v: dijkstra(graph, v) for v in graph.vertices()}


def eccentricity(graph: BaseGraph, v: Vertex) -> float:
    """Max distance from ``v`` to any vertex (inf if graph is disconnected)."""
    dist = dijkstra(graph, v)
    if len(dist) != graph.num_vertices:
        return INF
    return max(dist.values(), default=0.0)


def weighted_diameter(graph: BaseGraph) -> float:
    """Weighted diameter: max over vertices of :func:`eccentricity`."""
    return max((eccentricity(graph, v) for v in graph.vertices()), default=0.0)


def hop_diameter(graph: BaseGraph) -> float:
    """Unweighted (hop) diameter; ``inf`` if disconnected."""
    best = 0.0
    n = graph.num_vertices
    for v in graph.vertices():
        dist = bfs_distances(graph, v)
        if len(dist) != n:
            return INF
        best = max(best, max(dist.values(), default=0))
    return best


def is_connected(graph: BaseGraph) -> bool:
    """True if the graph is (weakly, for digraphs) connected or empty."""
    n = graph.num_vertices
    if n <= 1:
        return True
    if graph.directed:
        work = graph.to_undirected()  # type: ignore[attr-defined]
    else:
        work = graph
    start = next(iter(work.vertices()))
    return len(bfs_distances(work, start)) == n


def connected_components(graph: BaseGraph) -> List[set]:
    """Connected components (weak components for digraphs)."""
    if graph.directed:
        work = graph.to_undirected()  # type: ignore[attr-defined]
    else:
        work = graph
    remaining = work.vertex_set()
    components = []
    while remaining:
        start = next(iter(remaining))
        comp = set(bfs_distances(work, start))
        components.append(comp)
        remaining -= comp
    return components
