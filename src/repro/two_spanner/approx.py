"""End-to-end approximation drivers for Minimum Cost r-FT 2-Spanner.

:func:`approximate_ft2_spanner` is Theorem 3.3: solve LP (4) (knapsack-cover
cuts via Lemma 3.2), round with Algorithm 1 at ``α = C ln n``. The returned
ratio is measured against the LP optimum, which lower-bounds OPT, so the
reported ``cost / lp`` is an upper bound on the true approximation factor.

:func:`dk10_baseline` reproduces the prior state of the art the paper
improves on: the same rounding scheme but inflated by ``α = C r ln n``
(which is what [DK10]'s weaker relaxation forces). E6 sweeps ``r`` and
shows the baseline's cost growing linearly in ``r`` while Theorem 3.3's
stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..graph.graph import BaseGraph
from ..registry import register_algorithm
from ..rng import RandomLike
from .lp_new import FT2LPResult, solve_ft2_lp
from .lp_old import solve_old_lp
from .rounding import (
    RoundingResult,
    alpha_log_n,
    alpha_r_log_n,
    round_until_valid,
)

Vertex = Hashable


@dataclass
class ApproxResult:
    """A rounded spanner together with its LP certificate."""

    rounding: RoundingResult
    lp_objective: float
    alpha: float
    cut_rounds: int = 0
    cuts_added: int = 0
    forced_arcs: int = 0

    @property
    def spanner(self) -> BaseGraph:
        return self.rounding.spanner

    @property
    def cost(self) -> float:
        return self.rounding.cost

    @property
    def ratio_vs_lp(self) -> float:
        """cost / LP — an upper bound on the achieved approximation ratio."""
        if self.lp_objective <= 0:
            return 1.0 if self.cost <= 0 else float("inf")
        return self.cost / self.lp_objective


def approximate_ft2_spanner(
    graph: BaseGraph,
    r: int,
    seed: RandomLike = None,
    alpha_constant: float = 4.0,
    max_attempts: int = 20,
) -> ApproxResult:
    """Theorem 3.3: randomized O(log n)-approximation, independent of r."""
    lp_result: FT2LPResult = solve_ft2_lp(graph, r)
    alpha = alpha_log_n(graph.num_vertices, alpha_constant)
    rounding = round_until_valid(
        graph,
        lp_result.x_values(),
        r,
        alpha,
        max_attempts=max_attempts,
        seed=seed,
    )
    return ApproxResult(
        rounding=rounding,
        lp_objective=lp_result.objective,
        alpha=alpha,
        cut_rounds=lp_result.cut_rounds,
        cuts_added=lp_result.cuts_added,
        forced_arcs=lp_result.forced_arcs,
    )


def dk10_baseline(
    graph: BaseGraph,
    r: int,
    seed: RandomLike = None,
    alpha_constant: float = 4.0,
    max_attempts: int = 20,
    use_old_lp: bool = False,
) -> ApproxResult:
    """The O(r log n) baseline of [DK10].

    By default rounds the *new* LP's x values with the [DK10] inflation
    ``α = C r ln n`` — isolating exactly the α difference the paper's
    analysis removes. With ``use_old_lp=True`` the x values come from the
    materialized LP (2) (small instances only), matching [DK10] end to end.
    """
    if use_old_lp:
        old = solve_old_lp(graph, r)
        x_values = old.x_values()
        lp_objective = old.objective
        cut_rounds = cuts_added = forced_arcs = 0
    else:
        lp_result = solve_ft2_lp(graph, r)
        x_values = lp_result.x_values()
        lp_objective = lp_result.objective
        cut_rounds = lp_result.cut_rounds
        cuts_added = lp_result.cuts_added
        forced_arcs = lp_result.forced_arcs
    alpha = alpha_r_log_n(graph.num_vertices, r, alpha_constant)
    rounding = round_until_valid(
        graph, x_values, r, alpha, max_attempts=max_attempts, seed=seed
    )
    return ApproxResult(
        rounding=rounding,
        lp_objective=lp_objective,
        alpha=alpha,
        cut_rounds=cut_rounds,
        cuts_added=cuts_added,
        forced_arcs=forced_arcs,
    )


def _approx_stats(result: ApproxResult) -> dict:
    """JSON-able certificate row for a :class:`BuildReport`."""
    return {
        "lp_objective": result.lp_objective,
        "cost": result.cost,
        "ratio_vs_lp": result.ratio_vs_lp,
        "alpha": result.alpha,
        "cut_rounds": result.cut_rounds,
        "cuts_added": result.cuts_added,
        "forced_arcs": result.forced_arcs,
        "rounding_attempts": result.rounding.attempts,
        "repaired_edges": len(result.rounding.repaired_edges),
    }


@register_algorithm(
    "ft2-approx",
    summary="Theorem 3.3 O(log n)-approx minimum-cost r-FT 2-spanner",
    stretch_domain="exactly 2 (unit lengths, per-edge costs)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    lp_path=True,
    stretch_kind="fixed",
    fixed_stretch=2,
)
def _registry_build_new(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> approximate_ft2_spanner``."""
    from ..spec import require_fault_kind, require_lp_solver, require_stretch

    require_stretch(spec, 2)
    require_fault_kind(spec, "vertex", "none")
    require_lp_solver(spec)
    result = approximate_ft2_spanner(
        graph,
        spec.faults.r,
        seed=seed,
        alpha_constant=spec.param("alpha_constant", 4.0),
        max_attempts=spec.param("max_attempts", 20),
    )
    return result, _approx_stats(result)


@register_algorithm(
    "dk10-baseline",
    summary="[DK10] O(r log n) baseline (alpha inflated by r)",
    stretch_domain="exactly 2 (unit lengths, per-edge costs)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    lp_path=True,
    stretch_kind="fixed",
    fixed_stretch=2,
)
def _registry_build_old(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> dk10_baseline``."""
    from ..spec import require_fault_kind, require_lp_solver, require_stretch

    require_stretch(spec, 2)
    require_fault_kind(spec, "vertex", "none")
    require_lp_solver(spec)
    result = dk10_baseline(
        graph,
        spec.faults.r,
        seed=seed,
        alpha_constant=spec.param("alpha_constant", 4.0),
        max_attempts=spec.param("max_attempts", 20),
        use_old_lp=spec.param("use_old_lp", False),
    )
    return result, _approx_stats(result)
