"""Verification of (non-fault-tolerant) spanners.

As the paper notes after equation (1), it suffices to check the stretch
condition on the *edges* of the host graph: if every host edge's endpoints
stay within distance ``k * w`` in the spanner, every pair does (distort
each edge of a shortest path by at most ``k`` and the whole path is
distorted by at most ``k``). The exact verifier and the measured-stretch
routine both exploit this.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Tuple

from ..graph.graph import BaseGraph
from ..graph.paths import dijkstra, distance_at_most

Vertex = Hashable


def is_spanner(spanner: BaseGraph, graph: BaseGraph, k: float) -> bool:
    """Check whether ``spanner`` is a k-spanner of ``graph``.

    Runs one bounded Dijkstra per host edge; exact (no sampling).
    """
    for u, v, w in graph.edges():
        if not spanner.has_vertex(u) or not spanner.has_vertex(v):
            return False
        if not distance_at_most(spanner, u, v, k * w):
            return False
    return True


def max_edge_stretch(spanner: BaseGraph, graph: BaseGraph) -> float:
    """The worst stretch over host edges: max over (u,v,w) of d_H(u,v)/w.

    Equals the true stretch of the spanner (see module docstring). Returns
    ``inf`` if some host edge's endpoints are disconnected in the spanner,
    and 0.0 for an edgeless host graph.
    """
    worst = 0.0
    cache = {}
    for u, v, w in graph.edges():
        if u not in cache:
            cache[u] = dijkstra(spanner, u)
        d = cache[u].get(v, math.inf)
        if w == 0:
            if d > 0:
                return math.inf
            continue
        worst = max(worst, d / w)
        if worst == math.inf:
            return worst
    return worst


def violating_edges(
    spanner: BaseGraph, graph: BaseGraph, k: float
) -> List[Tuple[Vertex, Vertex, float]]:
    """Return host edges whose stretch bound is violated by ``spanner``."""
    bad = []
    for u, v, w in graph.edges():
        if not distance_at_most(spanner, u, v, k * w):
            bad.append((u, v, w))
    return bad
