"""Structural graph properties used by experiments and verifiers."""

from __future__ import annotations

import math
from typing import Dict, Hashable

from .graph import BaseGraph, Graph
from .paths import connected_components

Vertex = Hashable


def density(graph: BaseGraph) -> float:
    """Edge density m / C(n, 2) (or m / (n(n-1)) for digraphs)."""
    n = graph.num_vertices
    if n < 2:
        return 0.0
    pairs = n * (n - 1) if graph.directed else n * (n - 1) / 2
    return graph.num_edges / pairs


def average_degree(graph: BaseGraph) -> float:
    """Average (out-)degree 2m/n (m/n for digraphs)."""
    n = graph.num_vertices
    if n == 0:
        return 0.0
    factor = 1 if graph.directed else 2
    return factor * graph.num_edges / n


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map each occurring degree to the number of vertices with it."""
    hist: Dict[int, int] = {}
    for v in graph.vertices():
        d = graph.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def min_degree(graph: Graph) -> int:
    """Minimum vertex degree (0 for the empty graph)."""
    return min((graph.degree(v) for v in graph.vertices()), default=0)


def girth(graph: Graph, limit: int = 64) ->float:
    """Length of the shortest cycle (unweighted), or ``inf`` if acyclic.

    A BFS from every vertex finds the shortest cycle through it; the girth
    is the minimum. ``limit`` caps the searched cycle length. The greedy
    k-spanner's size bound rests on its output having girth > k + 1, which
    the test suite checks through this function.
    """
    best = math.inf
    for s in graph.vertices():
        dist = {s: 0}
        parent = {s: None}
        queue = [s]
        while queue:
            next_queue = []
            for v in queue:
                if dist[v] * 2 >= min(best, limit):
                    continue
                for u in graph.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        parent[u] = v
                        next_queue.append(u)
                    elif parent[v] != u and parent.get(u) != v:
                        # non-tree edge closes a cycle through s
                        best = min(best, dist[v] + dist[u] + 1)
            queue = next_queue
    return best


def is_subgraph(sub: BaseGraph, graph: BaseGraph) -> bool:
    """True if every vertex and edge of ``sub`` appears in ``graph``.

    Weights must match exactly — spanners must inherit weights from the
    host graph, never rescale them.
    """
    for v in sub.vertices():
        if not graph.has_vertex(v):
            return False
    for u, v, w in sub.edges():
        if not graph.has_edge(u, v) or graph.weight(u, v) != w:
            return False
    return True


def spanning_ratio(sub: BaseGraph, graph: BaseGraph) -> float:
    """Size of ``sub`` relative to ``graph`` (edge count ratio)."""
    if graph.num_edges == 0:
        return 1.0
    return sub.num_edges / graph.num_edges


def largest_component_fraction(graph: BaseGraph) -> float:
    """Fraction of vertices in the largest connected component."""
    n = graph.num_vertices
    if n == 0:
        return 1.0
    return max(len(c) for c in connected_components(graph)) / n
