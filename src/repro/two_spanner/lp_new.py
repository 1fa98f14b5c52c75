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

**Forced arcs (LP (4) only).** An arc ``(u, v)`` with ``|P_{u,v}| <= r``
is in every r-FT 2-spanner (Lemma 3.1): faulting its midpoints leaves
no two-path. LP (4) says so too: its knapsack-cover row for
``W = P_{u,v}`` reads ``x_{uv} >= 1``. :func:`build_ft2_lp` with
``with_knapsack_cover=True`` fixes these arcs at ``x = 1`` before the
first solve instead of letting the oracle find those rows one round at
a time. Their x column, cover row, and the f columns and capacity rows
of their own paths are not built; a capacity row ``f_P <= x_e`` on a
forced arc ``e`` becomes the column bound ``f_P <= 1``; their cost is
the model's objective constant. This is exact: ``x = 1`` on the forced
arcs plus ``f = 0`` on their paths satisfies every dropped row at zero
extra cost, so the reduced LP has LP (4)'s optimum, and the oracle
still separates every other arc. Without the flag the model is LP (3)
in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

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
from .paths2 import all_two_paths, canonical_edge_map

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
    """A built LP (3)/(4) model plus the path structure used to build it.

    ``two_paths`` maps every arc, forced or not, to its midpoints.
    ``forced`` holds the arcs fixed at ``x = 1`` outside ``lp`` and
    ``constant`` their total cost, which ``lp``'s objective leaves out.
    """

    lp: LinearProgram
    graph: BaseGraph
    r: int
    two_paths: Dict[EdgeKey, List[Vertex]]
    forced: FrozenSet[EdgeKey] = frozenset()
    constant: float = 0.0

    def x_values(self, solution: LPSolution) -> Dict[EdgeKey, float]:
        """Extract the edge purchase values from a solution (1.0 if forced)."""
        forced = self.forced
        return {
            (u, v): 1.0 if (u, v) in forced else solution.value(x_var(u, v))
            for (u, v) in self.two_paths
        }


def build_ft2_lp(
    graph: BaseGraph, r: int, with_knapsack_cover: bool = False
) -> FT2SpannerLP:
    """Build the base relaxation: capacity + W = ∅ cover rows.

    Knapsack-cover rows for ``W ≠ ∅`` are *not* included; they are added by
    the separation oracle during :func:`solve_ft2_lp`. Costs are read from
    the graph's edge weights (the Section 3 convention: unit lengths,
    arbitrary costs).

    Without ``with_knapsack_cover`` this is LP (3) over every arc. With
    it, the model is the start of LP (4)'s row generation: every arc
    with ``|P_{u,v}| <= r`` is fixed at ``x = 1`` and left out (see the
    module docstring), which LP (4)'s knapsack-cover rows imply and
    LP (3) alone does not. Surviving columns and rows keep the order of
    the full model: x in ``edges()`` order, then f, then the rows arc by
    arc.
    """
    if r < 0:
        raise LPError(f"r must be nonnegative, got {r}")
    lp = LinearProgram(name=f"ft2spanner(r={r})")
    paths = all_two_paths(graph)
    canon = canonical_edge_map(graph)
    forced = frozenset(
        arc for arc, mids in paths.items() if len(mids) <= r
    ) if with_knapsack_cover else frozenset()
    free = [(arc, mids) for arc, mids in paths.items() if arc not in forced]

    for (u, v), _mids in free:
        lp.add_variable(x_var(u, v), 0.0, 1.0, objective=graph.weight(u, v))
    for (u, v), mids in free:
        for z in mids:
            # f_P <= x_e <= 1 on a forced arc e is a bound, not a row.
            bought = canon[(u, z)] in forced or canon[(z, v)] in forced
            lp.add_variable(
                f_var(u, z, v), 0.0, 1.0 if bought else None, objective=0.0
            )

    for (u, v), mids in free:
        cover = {x_var(u, v): float(r + 1)}
        for z in mids:
            f = f_var(u, z, v)
            # capacity on both edges of the path (each edge lies on at most
            # one path of P_{u,v}, so the per-edge sum is a single term).
            # Path edges are normalized to the orientation the x variables
            # were declared under (relevant for undirected graphs).
            for row, arc in (("cap1", canon[(u, z)]), ("cap2", canon[(z, v)])):
                if arc not in forced:
                    lp.add_constraint(
                        {f: 1.0, x_var(*arc): -1.0},
                        LESS_EQUAL, 0.0, name=f"{row}:{u}-{z}-{v}",
                    )
            cover[f] = 1.0
        lp.add_constraint(cover, GREATER_EQUAL, float(r + 1), name=f"cover:{u}-{v}")
    constant = sum(w for u, v, w in graph.edges() if (u, v) in forced)
    return FT2SpannerLP(
        lp=lp, graph=graph, r=r, two_paths=paths, forced=forced,
        constant=float(constant),
    )


def knapsack_cover_oracle(model: FT2SpannerLP, tol: float = 1e-7):
    """Lemma 3.2's separation oracle for the knapsack-cover family.

    For each edge ``(u, v)``, sort path flows in nonincreasing order; if
    some ``W ⊆ P_{u,v}`` violates its inequality then the worst offender is
    ``W_j`` = the ``j`` largest-flow paths for some ``j <= r``, so checking
    those ``r`` prefixes suffices (paper, proof of Lemma 3.2). Returns the
    most violated prefix constraint per edge. Forced arcs are skipped:
    ``x = 1`` satisfies every row of theirs.
    """

    def oracle(solution: LPSolution) -> List[Constraint]:
        cuts: List[Constraint] = []
        r = model.r
        forced = model.forced
        for (u, v), mids in model.two_paths.items():
            if not mids or (u, v) in forced:
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

    @property
    def forced_arcs(self) -> int:
        """How many arcs the presolve fixed at ``x = 1``."""
        return len(self.model.forced)

    def x_values(self) -> Dict[EdgeKey, float]:
        return self.model.x_values(self.solution)


def solve_ft2_lp(
    graph: BaseGraph,
    r: int,
    with_knapsack_cover: bool = True,
    max_rounds: int = 200,
) -> FT2LPResult:
    """Build and solve LP (4) (or plain LP (3) when KC cuts are disabled).

    LP (4) starts from :func:`build_ft2_lp`'s model with the forced arcs
    fixed at ``x = 1``, and row generation with
    :func:`knapsack_cover_oracle` adds the knapsack-cover rows of the
    other arcs. The reported objective adds the forced arcs' cost, so it
    is LP (4)'s optimum; ``x_values()`` reads 1.0 on every forced arc.

    ``with_knapsack_cover=False`` is the E5 ablation: LP (3) in full,
    with no arc forced and no cuts. On the
    :func:`~repro.graph.generators.knapsack_gap_gadget` instance the
    un-strengthened relaxation undershoots the optimum by a factor Ω(r).
    """
    model = build_ft2_lp(graph, r, with_knapsack_cover)
    oracles = [knapsack_cover_oracle(model)] if with_knapsack_cover else []
    result: CuttingPlaneResult = solve_with_cuts(
        model.lp, oracles, max_rounds=max_rounds
    )
    return FT2LPResult(
        model=model,
        solution=result.solution,
        objective=model.constant + result.solution.objective,
        cut_rounds=result.rounds,
        cuts_added=result.cuts_added,
    )
