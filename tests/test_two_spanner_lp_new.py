"""LP (3)/(4): model structure, separation oracle, and known optima."""

from __future__ import annotations

import pytest

from repro.errors import LPError
from repro.graph import complete_digraph, knapsack_gap_gadget
from repro.two_spanner import (
    build_ft2_lp,
    f_var,
    gadget_optimum,
    knapsack_cover_oracle,
    solve_ft2_lp,
    x_var,
)


class TestModelStructure:
    def test_variable_counts(self):
        g = complete_digraph(4)  # 12 arcs, each with 2 midpoints
        model = build_ft2_lp(g, r=1)
        m = g.num_edges
        paths = sum(len(v) for v in model.two_paths.values())
        assert model.lp.num_variables == m + paths
        # capacity rows: 2 per path; cover rows: 1 per edge
        assert model.lp.num_constraints == 2 * paths + m

    def test_rejects_negative_r(self):
        with pytest.raises(LPError):
            build_ft2_lp(complete_digraph(3), -1)

    def test_x_values_extraction(self):
        g = complete_digraph(3)
        result = solve_ft2_lp(g, 0)
        xs = result.x_values()
        assert set(xs) == {(u, v) for u, v, _w in g.edges()}
        assert all(0.0 - 1e-9 <= x <= 1.0 + 1e-9 for x in xs.values())


class TestKnownOptima:
    def test_r0_complete_digraph(self):
        # With r=0 (plain 2-spanner LP), K_n admits x_e = 1/(n-2) everywhere.
        n = 5
        result = solve_ft2_lp(complete_digraph(n), 0)
        assert result.objective <= n * (n - 1) / (n - 2) + 1e-6

    def test_gadget_with_kc_reaches_optimum(self):
        for r in (1, 2, 3):
            result = solve_ft2_lp(knapsack_gap_gadget(r, 50.0), r)
            assert result.objective == pytest.approx(gadget_optimum(r, 50.0))
            assert result.cuts_added >= 1  # KC cuts were needed

    def test_gadget_without_kc_undershoots(self):
        r = 3
        with_kc = solve_ft2_lp(knapsack_gap_gadget(r, 50.0), r)
        without = solve_ft2_lp(
            knapsack_gap_gadget(r, 50.0), r, with_knapsack_cover=False
        )
        assert without.objective < with_kc.objective
        # the plain relaxation sets x_uv ~ 1/(r+1)
        assert without.objective == pytest.approx(50.0 / (r + 1) + 2 * r, rel=1e-6)

    def test_edge_with_no_midpoints_is_forced(self):
        g = knapsack_gap_gadget(2, 10.0)
        result = solve_ft2_lp(g, 2)
        xs = result.x_values()
        for i in range(2):
            assert xs[("u", ("w", i))] == pytest.approx(1.0)
            assert xs[(("w", i), "v")] == pytest.approx(1.0)


class TestSeparationOracle:
    def test_oracle_accepts_feasible_solution(self):
        g = knapsack_gap_gadget(2, 10.0)
        model = build_ft2_lp(g, 2)
        oracle = knapsack_cover_oracle(model)
        # integral solution: everything bought, flows zero
        values = {x_var(u, v): 1.0 for (u, v) in model.two_paths}

        class FakeSolution:
            def value(self, name):
                return values.get(name, 0.0)

        assert oracle(FakeSolution()) == []

    def test_oracle_finds_violation(self):
        r = 2
        g = knapsack_gap_gadget(r, 10.0)
        model = build_ft2_lp(g, r)
        # x_uv = 1/(r+1), full flow on all r cheap paths: the W = all-paths
        # KC constraint demands x_uv = 1.
        values = {x_var(u, v): 1.0 for (u, v) in model.two_paths}
        values[x_var("u", "v")] = 1.0 / (r + 1)
        for i in range(r):
            values[f_var("u", ("w", i), "v")] = 1.0

        class FakeSolution:
            def value(self, name):
                return values.get(name, 0.0)

        cuts = knapsack_cover_oracle(model)(FakeSolution())
        assert len(cuts) == 1
        cut = cuts[0]
        assert cut.rhs == pytest.approx(1.0)  # r + 1 - |W| with |W| = r
        assert cut.coeffs[x_var("u", "v")] == pytest.approx(1.0)

    def test_monotone_lp_value_r(self):
        g = complete_digraph(6)
        values = [solve_ft2_lp(g, r).objective for r in (0, 1, 2)]
        assert values[0] <= values[1] <= values[2]
