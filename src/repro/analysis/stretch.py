"""Stretch measurement under faults — the observable behind experiment E3.

These helpers quantify *how much* slack a fault-tolerant spanner has, not
just whether it is valid: for sampled (or enumerated) fault sets they
report the worst multiplicative stretch the survivor subgraph exhibits
against the survivor host graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, List

from ..core.verify import fault_sets
from ..graph.graph import BaseGraph
from ..graph.paths import dijkstra
from ..rng import RandomLike, ensure_rng

Vertex = Hashable


def stretch_after_faults(
    spanner: BaseGraph, graph: BaseGraph, faults: Iterable[Vertex]
) -> float:
    """Worst stretch of ``H \\ F`` relative to ``G \\ F`` over surviving edges.

    Returns 1.0 for an edgeless survivor host and ``inf`` when some
    surviving host edge's endpoints are disconnected in the survivor
    spanner (a host vertex the spanner lacks is disconnected from all).
    """
    fault_set = set(faults)
    g_f = graph.without_vertices(fault_set)
    h_f = spanner.without_vertices(fault_set)
    worst = 1.0
    for u in g_f.vertices():
        out = (
            list(g_f.successors(u)) if g_f.directed else list(g_f.neighbors(u))
        )
        if not out:
            continue
        dist_g = dijkstra(g_f, u)
        dist_h = dijkstra(h_f, u) if h_f.has_vertex(u) else {}
        for v in out:
            denom = dist_g[v]
            numer = dist_h.get(v, math.inf)
            if denom == 0:
                if numer > 0:
                    return math.inf
                continue
            worst = max(worst, numer / denom)
            if worst == math.inf:
                return worst
    return worst


@dataclass
class StretchProfile:
    """Distribution of post-fault stretch over a collection of fault sets."""

    samples: List[float] = field(default_factory=list)

    @property
    def max(self) -> float:
        return max(self.samples, default=1.0)

    @property
    def mean(self) -> float:
        finite = [s for s in self.samples if not math.isinf(s)]
        if not finite:
            return math.inf if self.samples else 1.0
        return sum(finite) / len(finite)

    def fraction_within(self, k: float, tol: float = 1e-9) -> float:
        """Fraction of fault sets whose stretch stayed <= k."""
        if not self.samples:
            return 1.0
        good = sum(1 for s in self.samples if s <= k * (1 + tol))
        return good / len(self.samples)


def exhaustive_stretch_profile(
    spanner: BaseGraph, graph: BaseGraph, r: int
) -> StretchProfile:
    """Stretch over *every* fault set of size <= r (small instances)."""
    profile = StretchProfile()
    for faults in fault_sets(list(graph.vertices()), r):
        profile.samples.append(stretch_after_faults(spanner, graph, faults))
    return profile


def sampled_stretch_profile(
    spanner: BaseGraph,
    graph: BaseGraph,
    r: int,
    trials: int = 100,
    seed: RandomLike = None,
    exact_size: bool = True,
) -> StretchProfile:
    """Stretch over random fault sets (size exactly r, or uniform 0..r)."""
    rng = ensure_rng(seed)
    vertices = list(graph.vertices())
    profile = StretchProfile()
    for _ in range(trials):
        size = min(r, len(vertices))
        if not exact_size:
            size = rng.randint(0, size)
        faults = rng.sample(vertices, size) if size else []
        profile.samples.append(stretch_after_faults(spanner, graph, faults))
    return profile
