"""The paper's new LP relaxation — LP (3) strengthened to LP (4).

Variables (all for the *host* graph ``G = (V, E)`` with costs ``c_e``):

* ``("x", u, v)`` — fractional purchase of edge ``(u, v) ∈ E``, in [0, 1];
* ``("f", u, z, v)`` — flow on the length-2 path ``u → z → v`` (midpoint
  ``z ∈ P_{u,v}``), nonnegative.

Constraint families:

* **capacity** — for every edge ``(u, v)`` and every path ``P ∈ P_{u,v}``,
  the flow on ``P`` is at most the purchase of each of its two edges.
  (Because each edge lies on at most one path of ``P_{u,v}``, the paper's
  per-edge sums collapse to these pairwise bounds; see
  :mod:`repro.two_spanner.paths2`.)
* **cover (W = ∅)** — ``(r+1)·x_{uv} + Σ_P f_P >= r+1``: either buy the
  edge or route ``r + 1`` units through length-2 paths (Lemma 3.1's
  fractional shadow).
* **knapsack-cover** — for every ``W ⊆ P_{u,v}``, ``|W| <= r``:
  ``(r+1-|W|)·x_{uv} + Σ_{P∉W} f_P >= r+1-|W|``. Exponentially many; added
  on demand by the Lemma 3.2 separation oracle
  (:func:`knapsack_cover_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import LPError
from ..graph.graph import BaseGraph
from ..lp.cutting_plane import CuttingPlaneResult, solve_with_cuts
from ..lp.model import (
    Constraint,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LPSolution,
)
from .paths2 import canonical_edge_map, two_path_midpoints

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


def x_var(u: Vertex, v: Vertex) -> Tuple[str, Vertex, Vertex]:
    """Variable key for the purchase of edge ``(u, v)``."""
    return ("x", u, v)


def f_var(u: Vertex, z: Vertex, v: Vertex) -> Tuple[str, Vertex, Vertex, Vertex]:
    """Variable key for the flow on path ``u → z → v``."""
    return ("f", u, z, v)


@dataclass
class FT2SpannerLP:
    """A built LP (3)/(4) model plus the path structure used to build it."""

    lp: LinearProgram
    graph: BaseGraph
    r: int
    two_paths: Dict[EdgeKey, List[Vertex]]

    def x_values(self, solution: LPSolution) -> Dict[EdgeKey, float]:
        """Extract the edge purchase values from a solution."""
        return {
            (u, v): solution.value(x_var(u, v)) for (u, v) in self.two_paths
        }


def build_ft2_lp(graph: BaseGraph, r: int) -> FT2SpannerLP:
    """Build the base relaxation (LP (3)): capacity + W = ∅ cover rows.

    Knapsack-cover rows for ``W ≠ ∅`` are *not* included; they are added by
    the separation oracle during :func:`solve_ft2_lp`. Costs are read from
    the graph's edge weights (the Section 3 convention: unit lengths,
    arbitrary costs).
    """
    if r < 0:
        raise LPError(f"r must be nonnegative, got {r}")
    lp = LinearProgram(name=f"ft2spanner(r={r})")
    paths = {
        (u, v): two_path_midpoints(graph, u, v) for u, v, _w in graph.edges()
    }
    canon = canonical_edge_map(graph)

    for (u, v) in paths:
        lp.add_variable(x_var(u, v), 0.0, 1.0, objective=graph.weight(u, v))
    for (u, v), mids in paths.items():
        for z in mids:
            lp.add_variable(f_var(u, z, v), 0.0, None, objective=0.0)

    for (u, v), mids in paths.items():
        cover = {x_var(u, v): float(r + 1)}
        for z in mids:
            f = f_var(u, z, v)
            # capacity on both edges of the path (each edge lies on at most
            # one path of P_{u,v}, so the per-edge sum is a single term).
            # Path edges are normalized to the orientation the x variables
            # were declared under (relevant for undirected graphs).
            lp.add_constraint(
                {f: 1.0, x_var(*canon[(u, z)]): -1.0},
                LESS_EQUAL, 0.0, name=f"cap1:{u}-{z}-{v}",
            )
            lp.add_constraint(
                {f: 1.0, x_var(*canon[(z, v)]): -1.0},
                LESS_EQUAL, 0.0, name=f"cap2:{u}-{z}-{v}",
            )
            cover[f] = 1.0
        lp.add_constraint(cover, GREATER_EQUAL, float(r + 1), name=f"cover:{u}-{v}")
    return FT2SpannerLP(lp=lp, graph=graph, r=r, two_paths=paths)


def knapsack_cover_oracle(model: FT2SpannerLP, tol: float = 1e-7):
    """Lemma 3.2's separation oracle for the knapsack-cover family.

    For each edge ``(u, v)``, sort path flows in nonincreasing order; if
    some ``W ⊆ P_{u,v}`` violates its inequality then the worst offender is
    ``W_j`` = the ``j`` largest-flow paths for some ``j <= r``, so checking
    those ``r`` prefixes suffices (paper, proof of Lemma 3.2). Returns the
    most violated prefix constraint per edge.
    """

    def oracle(solution: LPSolution) -> List[Constraint]:
        cuts: List[Constraint] = []
        r = model.r
        for (u, v), mids in model.two_paths.items():
            if not mids:
                continue
            flows = sorted(
                ((solution.value(f_var(u, z, v)), z) for z in mids), reverse=True,
                key=lambda item: (item[0], repr(item[1])),
            )
            x_uv = solution.value(x_var(u, v))
            best_cut: Optional[Constraint] = None
            best_violation = tol
            prefix_flow = sum(f for f, _z in flows)
            # j = 0 is the base cover constraint already in the model.
            for j in range(1, min(r, len(flows)) + 1):
                prefix_flow -= flows[j - 1][0]
                need = r + 1 - j
                lhs = need * x_uv + prefix_flow
                violation = need - lhs
                if violation > best_violation:
                    coeffs = {x_var(u, v): float(need)}
                    for f, z in flows[j:]:
                        coeffs[f_var(u, z, v)] = 1.0
                    best_cut = Constraint(
                        coeffs=coeffs,
                        sense=GREATER_EQUAL,
                        rhs=float(need),
                        name=f"kc:{u}-{v}:|W|={j}",
                    )
                    best_violation = violation
            if best_cut is not None:
                cuts.append(best_cut)
        return cuts

    return oracle


@dataclass
class FT2LPResult:
    """Solved relaxation: optimum, x values, and cut accounting."""

    model: FT2SpannerLP
    solution: LPSolution
    objective: float
    cut_rounds: int
    cuts_added: int

    def x_values(self) -> Dict[EdgeKey, float]:
        return self.model.x_values(self.solution)


def solve_ft2_lp(
    graph: BaseGraph,
    r: int,
    with_knapsack_cover: bool = True,
    max_rounds: int = 200,
) -> FT2LPResult:
    """Build and solve LP (4) (or plain LP (3) when KC cuts are disabled).

    ``with_knapsack_cover=False`` is the E5 ablation: on the
    :func:`~repro.graph.generators.knapsack_gap_gadget` instance the
    un-strengthened relaxation undershoots the optimum by a factor Ω(r).
    """
    model = build_ft2_lp(graph, r)
    oracles = [knapsack_cover_oracle(model)] if with_knapsack_cover else []
    result: CuttingPlaneResult = solve_with_cuts(
        model.lp, oracles, max_rounds=max_rounds
    )
    return FT2LPResult(
        model=model,
        solution=result.solution,
        objective=result.solution.objective,
        cut_rounds=result.rounds,
        cuts_added=result.cuts_added,
    )
