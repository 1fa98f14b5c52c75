"""The previous LP relaxation — IP/LP (2) from [DK10], built explicitly.

This is the relaxation the paper *rejects*: per-fault-set flow variables
``f^F_P`` and constraints "one unit of flow from u to v survives every
fault set F". The paper's Section 3.1 shows its integrality gap is Ω(r)
already on the complete graph, which motivates the knapsack-cover LP (4).

We materialize the whole program (every fault set ``|F| <= r``), so this is
only usable at small ``(n, r)`` — exactly how experiment E4 uses it. Note
``P^F_{u,v}`` includes the direct edge ``(u, v)`` itself as a "path"
alongside the surviving length-2 paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..core.verify import count_fault_sets, fault_sets
from ..errors import LPError
from ..graph.graph import BaseGraph
from ..lp.model import GREATER_EQUAL, LESS_EQUAL, LinearProgram, LPSolution
from .lp_new import x_var
from .paths2 import all_two_paths, canonical_edge_map, surviving_midpoints

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]

#: Refuse to materialize LP (2) beyond this many fault sets.
MAX_FAULT_SETS = 50_000


def flow_var(faults: Tuple[Vertex, ...], u: Vertex, mid: Optional[Vertex], v: Vertex):
    """Variable key for ``f^F_P``; ``mid=None`` encodes the direct edge."""
    return ("fF", faults, u, mid, v)


@dataclass
class OldLPResult:
    """Solved LP (2) relaxation."""

    lp: LinearProgram
    solution: LPSolution
    objective: float
    num_fault_sets: int

    def x_values(self) -> Dict[EdgeKey, float]:
        return {
            key[1:]: val
            for key, val in self.solution.values.items()
            if isinstance(key, tuple) and key and key[0] == "x"
        }


def build_old_lp(graph: BaseGraph, r: int, max_fault_sets: int = MAX_FAULT_SETS):
    """Materialize the full LP (2) relaxation for ``graph`` and ``r``."""
    if r < 0:
        raise LPError(f"r must be nonnegative, got {r}")
    n = graph.num_vertices
    total = count_fault_sets(n, r)
    if total > max_fault_sets:
        raise LPError(
            f"LP (2) needs {total} fault sets here, over the limit {max_fault_sets}"
        )
    lp = LinearProgram(name=f"dk10-old-lp(r={r})")
    paths = all_two_paths(graph)
    canon = canonical_edge_map(graph)
    for (u, v) in paths:
        lp.add_variable(x_var(u, v), 0.0, 1.0, objective=graph.weight(u, v))

    vertices = list(graph.vertices())
    num_fault_sets = 0
    for faults in fault_sets(vertices, r):
        fault_set = set(faults)
        num_fault_sets += 1
        for (u, v), mids in paths.items():
            if u in fault_set or v in fault_set:
                continue
            survivors = surviving_midpoints(mids, fault_set)
            # Flow variables for this fault set: direct edge + 2-paths.
            direct = flow_var(faults, u, None, v)
            lp.add_variable(direct, 0.0, None, 0.0)
            lp.add_constraint(
                {direct: 1.0, x_var(u, v): -1.0}, LESS_EQUAL, 0.0,
                name=f"capF:{faults}:{u}-{v}",
            )
            demand = {direct: 1.0}
            for z in survivors:
                f = flow_var(faults, u, z, v)
                lp.add_variable(f, 0.0, None, 0.0)
                lp.add_constraint(
                    {f: 1.0, x_var(*canon[(u, z)]): -1.0}, LESS_EQUAL, 0.0,
                    name=f"capF1:{faults}:{u}-{z}-{v}",
                )
                lp.add_constraint(
                    {f: 1.0, x_var(*canon[(z, v)]): -1.0}, LESS_EQUAL, 0.0,
                    name=f"capF2:{faults}:{u}-{z}-{v}",
                )
                demand[f] = 1.0
            lp.add_constraint(
                demand, GREATER_EQUAL, 1.0, name=f"flow:{faults}:{u}-{v}"
            )
    return lp, num_fault_sets


def solve_old_lp(
    graph: BaseGraph,
    r: int,
    max_fault_sets: int = MAX_FAULT_SETS,
) -> OldLPResult:
    """Solve the [DK10] relaxation exactly (small instances only)."""
    lp, num_fault_sets = build_old_lp(graph, r, max_fault_sets)
    solution = lp.solve()
    return OldLPResult(
        lp=lp,
        solution=solution,
        objective=solution.objective,
        num_fault_sets=num_fault_sets,
    )


def complete_graph_fractional_value(n: int, r: int) -> float:
    """The paper's closed-form feasible value of LP (2) on ``K_n``.

    Setting every capacity to ``1/(n - r - 2)`` routes one unit of flow
    between any surviving pair after any ``r`` faults, for total cost
    ``n(n-1)/(n-r-2)`` — O(n) for r bounded away from n. The true optimum
    can only be smaller, so this upper-bounds the LP and certifies the
    Ω(r) gap against the integral optimum of ~``rn``.
    """
    if n - r - 2 <= 0:
        return math.inf
    return n * (n - 1) / (n - r - 2)


def complete_graph_integral_lower_bound(n: int, r: int) -> float:
    """Integral optimum lower bound on ``K_n`` (directed).

    Every vertex needs out-degree at least ``min(r + 1, n - 1)`` in the
    spanner: with fewer out-neighbours, at most ``r`` of them and not all
    ``n - 1`` other vertices, deleting them cuts it off from a surviving
    third vertex that K_n still joins it to. Summing out-degrees gives at
    least ``n·min(r + 1, n - 1)`` arcs (in-degrees give the same bound);
    once ``r >= n - 2`` that is every arc of ``K_n``.
    """
    return n * min(r + 1, n - 1)
