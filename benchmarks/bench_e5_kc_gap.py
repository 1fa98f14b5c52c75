"""E5 — Section 3.2: knapsack-cover inequalities close an Ω(r) gap.

Paper claim: on the M-gadget (one expensive arc plus r unit-cost
two-paths), LP (3) *without* knapsack-cover inequalities sets
``x_{uv} = 1/(r+1)`` and pays ``M/(r+1) + 2r`` while the optimum is
``M + 2r`` — gap Ω(r). Adding the KC family (LP (4)) forces
``x_{uv} = 1`` and closes the gap entirely.

What we measure: LP (3), LP (4), the exact optimum, the number of KC
cuts the Lemma 3.2 separation oracle generates by row generation over
the full LP (3) model, and the arcs that LP (4)'s Lemma 3.1 presolve
fixes at x = 1 before its first solve (an arc with at most r two-paths).

Shape to hold: gap without KC strictly increasing and ~linear in r; gap
with KC equal to 1 everywhere; over LP (3) the oracle generates at least
one cut per run; the presolve fixes all 2r + 1 arcs of the gadget (the
expensive arc has exactly r two-paths, the others none).
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import print_table
from repro.graph import knapsack_gap_gadget
from repro.lp import solve_with_cuts
from repro.two_spanner import (
    build_ft2_lp,
    exact_minimum_ft2_spanner,
    kc_gap_on_gadget,
    knapsack_cover_oracle,
    solve_ft2_lp,
)

M = 1000.0
R_VALUES = [1, 2, 4, 8]


def sweep():
    rows = []
    for r in R_VALUES:
        gap = kc_gap_on_gadget(r, expensive_cost=M)
        gadget = knapsack_gap_gadget(r, M)
        model = build_ft2_lp(gadget, r)
        cuts = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)]).cuts_added
        forced = solve_ft2_lp(gadget, r).forced_arcs
        exact = (
            exact_minimum_ft2_spanner(gadget, r).cost
            if 2 * r + 1 <= 17
            else float("nan")
        )
        rows.append(
            {
                "r": r,
                "lp3": gap.lp3_value,
                "lp4": gap.lp4_value,
                "opt": gap.opt,
                "exact": exact,
                "gap3": gap.gap_without_kc,
                "gap4": gap.gap_with_kc,
                "cuts": cuts,
                "forced": forced,
            }
        )
    return rows


def test_e5_kc_gap(benchmark):
    rows = run_once(benchmark, sweep)
    print_table(
        ["r", "LP(3) no KC", "LP(4) with KC", "optimum", "exact B&B",
         "gap w/o KC", "gap with KC", "KC cuts", "forced arcs"],
        [
            [row["r"], row["lp3"], row["lp4"], row["opt"], row["exact"],
             row["gap3"], row["gap4"], row["cuts"], row["forced"]]
            for row in rows
        ],
        title=f"E5: the M-gadget (M = {M:.0f})",
    )
    gaps3 = [row["gap3"] for row in rows]
    assert all(b > a for a, b in zip(gaps3, gaps3[1:]))
    # asymptotically gap3 -> r + 1; at r=8 it must exceed 5.
    assert gaps3[-1] >= 5.0
    for row in rows:
        assert abs(row["gap4"] - 1.0) <= 1e-6
        assert row["cuts"] >= 1
        assert row["forced"] == 2 * row["r"] + 1
        if row["exact"] == row["exact"]:  # not NaN
            assert row["exact"] == row["opt"]
