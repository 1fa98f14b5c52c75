"""Exact minimum-cost r-fault-tolerant 2-spanners on tiny instances.

Branch and bound over edge subsets, with Lemma 3.1 as the feasibility
predicate. Used by tests and by the integrality-gap experiments (E4, E5) to
report true optima where that is tractable; approximation-ratio experiments
at larger scale use the LP optimum as the lower bound instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Set, Tuple

from ..errors import FaultToleranceError
from ..graph.graph import BaseGraph
from .paths2 import all_two_paths, canonical_edge_map

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]

#: Default guard: 2^22 subsets is the most the default settings will search
#: (with pruning the practical node count is far smaller).
MAX_EDGES = 22


@dataclass
class ExactResult:
    """Optimal spanner, its cost, and search statistics."""

    spanner: BaseGraph
    cost: float
    nodes_explored: int

    @property
    def num_edges(self) -> int:
        return self.spanner.num_edges


def _satisfied(
    chosen: Set[EdgeKey],
    host_edges: List[EdgeKey],
    midpoints: Dict[EdgeKey, List[Vertex]],
    r: int,
    canon: Dict[EdgeKey, EdgeKey],
) -> bool:
    """Lemma 3.1 feasibility of the chosen edge set."""
    for (u, v) in host_edges:
        if (u, v) in chosen:
            continue
        covered = 0
        for z in midpoints[(u, v)]:
            if canon[(u, z)] in chosen and canon[(z, v)] in chosen:
                covered += 1
                if covered > r:
                    break
        if covered <= r:
            return False
    return True


def _satisfiable_upper(
    chosen: Set[EdgeKey],
    available: Set[EdgeKey],
    host_edges: List[EdgeKey],
    midpoints: Dict[EdgeKey, List[Vertex]],
    r: int,
    canon: Dict[EdgeKey, EdgeKey],
) -> bool:
    """Could ``chosen ∪ available`` ever satisfy every host edge?"""
    pool = chosen | available
    return _satisfied(pool, host_edges, midpoints, r, canon)


def exact_minimum_ft2_spanner(
    graph: BaseGraph, r: int, max_edges: int = MAX_EDGES
) -> ExactResult:
    """Exact branch-and-bound solver for Minimum Cost r-FT 2-Spanner.

    Edges are decided most-expensive-first (excluding an expensive edge
    early gives the strongest pruning). A node is pruned when its committed
    cost meets the incumbent or when even buying every undecided edge
    cannot satisfy Lemma 3.1.

    Raises :class:`~repro.errors.FaultToleranceError` when the instance
    itself is infeasible (some edge cannot be satisfied even by the whole
    graph — impossible, since buying every edge always works) or when it
    exceeds ``max_edges``.
    """
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    edges = sorted(graph.edges(), key=lambda e: -e[2])
    m = len(edges)
    if m > max_edges:
        raise FaultToleranceError(
            f"instance has {m} edges; exact search is limited to {max_edges}"
        )
    midpoints = all_two_paths(graph)
    host_edges = list(midpoints.keys())
    canon = canonical_edge_map(graph)

    # Incumbent: the full edge set (always feasible).
    best_set: Set[EdgeKey] = {(u, v) for u, v, _w in edges}
    best_cost = sum(w for _u, _v, w in edges)
    nodes = 0

    keys = [(u, v) for u, v, _w in edges]
    costs = [w for _u, _v, w in edges]
    suffix_sets: List[Set[EdgeKey]] = [set() for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        suffix_sets[i] = suffix_sets[i + 1] | {keys[i]}

    chosen: Set[EdgeKey] = set()

    def dfs(i: int, cost: float) -> None:
        nonlocal best_cost, best_set, nodes
        nodes += 1
        if cost >= best_cost:
            return
        if i == m:
            if _satisfied(chosen, host_edges, midpoints, r, canon):
                best_cost = cost
                best_set = set(chosen)
            return
        if not _satisfiable_upper(
            chosen, suffix_sets[i], host_edges, midpoints, r, canon
        ):
            return
        # Branch 1: exclude the expensive edge first.
        dfs(i + 1, cost)
        # Branch 2: include it.
        chosen.add(keys[i])
        dfs(i + 1, cost + costs[i])
        chosen.discard(keys[i])

    dfs(0, 0.0)
    if not _satisfied(best_set, host_edges, midpoints, r, canon):  # pragma: no cover
        raise FaultToleranceError("search ended without a feasible solution")
    return ExactResult(
        spanner=graph.edge_subgraph(best_set),
        cost=best_cost,
        nodes_explored=nodes,
    )
