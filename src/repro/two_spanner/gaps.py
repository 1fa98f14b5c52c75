"""The paper's two integrality-gap demonstrations, as runnable experiments.

* Section 3.1: the old flow relaxation LP (2) has gap Ω(r) on the complete
  graph — the LP pays ~``n²/(n-r-2)`` while any integral solution needs
  ``n·min(r+1, n-1)`` arcs (min out-degree r+1, or every other vertex).
* Section 3.2: LP (3) *without* knapsack-cover inequalities has gap Ω(r) on
  the M-gadget — the LP sets ``x_{uv} = 1/(r+1)`` on the expensive edge,
  while the integral optimum must buy it outright. Adding the KC family
  (i.e. solving LP (4)) closes the gap completely on this instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graph.generators import complete_digraph, knapsack_gap_gadget
from .exact import exact_minimum_ft2_spanner
from .lp_new import solve_ft2_lp
from .lp_old import (
    complete_graph_fractional_value,
    complete_graph_integral_lower_bound,
    solve_old_lp,
)


@dataclass
class CompleteGraphGap:
    """E4 measurement on the directed complete graph ``K_n``."""

    n: int
    r: int
    lp_value: float
    analytic_lp_upper: float
    integral_lower_bound: float
    exact_opt: float  # nan when the exact solve was skipped

    @property
    def gap_lower_bound(self) -> float:
        """Certified integrality gap: integral LB over LP value.

        On ``K_1`` both are 0 and the empty spanner is optimal at the LP's
        cost, so the gap is 1; it is ``inf`` only when the LP alone is 0.
        """
        if self.lp_value <= 0:
            return 1.0 if self.integral_lower_bound <= 0 else math.inf
        return self.integral_lower_bound / self.lp_value


def old_lp_gap_on_complete_graph(
    n: int, r: int, solve_exact: bool = False
) -> CompleteGraphGap:
    """Measure the Section 3.1 gap of LP (2) on ``K_n`` (directed, unit costs).

    ``solve_exact`` additionally runs the branch-and-bound optimum, which
    is only feasible for very small ``n`` (the arc count is ``n(n-1)``).
    """
    graph = complete_digraph(n)
    lp = solve_old_lp(graph, r)
    exact_opt = math.nan
    if solve_exact:
        exact_opt = exact_minimum_ft2_spanner(graph, r).cost
    return CompleteGraphGap(
        n=n,
        r=r,
        lp_value=lp.objective,
        analytic_lp_upper=complete_graph_fractional_value(n, r),
        integral_lower_bound=complete_graph_integral_lower_bound(n, r),
        exact_opt=exact_opt,
    )


@dataclass
class GadgetGap:
    """E5 measurement on the knapsack-cover gadget."""

    r: int
    expensive_cost: float
    lp3_value: float  # without knapsack-cover inequalities
    lp4_value: float  # with knapsack-cover inequalities
    opt: float

    @property
    def gap_without_kc(self) -> float:
        return self.opt / self.lp3_value if self.lp3_value > 0 else math.inf

    @property
    def gap_with_kc(self) -> float:
        return self.opt / self.lp4_value if self.lp4_value > 0 else math.inf


def gadget_optimum(r: int, expensive_cost: float) -> float:
    """Integral optimum of the M-gadget: ``M + 2r``.

    Every cheap arc ``(u, w_i)`` / ``(w_i, v)`` has *no* length-2 path
    between its endpoints, so Lemma 3.1 forces all ``2r`` of them into any
    feasible solution. The expensive arc has exactly ``r`` two-paths — one
    short of the ``r + 1`` Lemma 3.1 demands — so it must be bought too.
    """
    return expensive_cost + 2.0 * r


def kc_gap_on_gadget(r: int, expensive_cost: float = 1000.0) -> GadgetGap:
    """Measure the Section 3.2 gap with and without knapsack-cover cuts."""
    graph = knapsack_gap_gadget(r, expensive_cost)
    lp3 = solve_ft2_lp(graph, r, with_knapsack_cover=False)
    lp4 = solve_ft2_lp(graph, r, with_knapsack_cover=True)
    return GadgetGap(
        r=r,
        expensive_cost=expensive_cost,
        lp3_value=lp3.objective,
        lp4_value=lp4.objective,
        opt=gadget_optimum(r, expensive_cost),
    )
