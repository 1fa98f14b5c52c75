"""LP (3)/(4): model structure, separation oracle, and known optima."""

from __future__ import annotations

import pytest

from repro.core import is_ft_2spanner
from repro.errors import LPError
from repro.graph import (
    complete_digraph,
    gnp_random_digraph,
    gnp_random_graph,
    knapsack_gap_gadget,
)
from repro.lp import (
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LPSolution,
    solve_with_cuts,
)
from repro.two_spanner import (
    approximate_ft2_spanner,
    build_ft2_lp,
    f_var,
    gadget_optimum,
    knapsack_cover_oracle,
    solve_ft2_lp,
    two_path_midpoints,
    x_var,
)
from repro.two_spanner.paths2 import canonical_edge_map


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
            g = knapsack_gap_gadget(r, 50.0)
            # Row generation over the full LP (3) model: the oracle must
            # find the knapsack-cover rows that LP (3) lacks.
            model = build_ft2_lp(g, r)
            result = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])
            assert result.solution.objective == pytest.approx(gadget_optimum(r, 50.0))
            assert result.cuts_added >= 1  # KC cuts were needed
            # LP (4) fixes every arc of the gadget up front (the expensive
            # arc has exactly r two-paths), so no cut is left to add.
            presolved = solve_ft2_lp(g, r)
            assert presolved.objective == pytest.approx(gadget_optimum(r, 50.0))
            assert ("u", "v") in presolved.model.forced
            assert presolved.x_values()[("u", "v")] == 1.0
            assert presolved.cuts_added == 0

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


# ---------------------------------------------------------------------------
# The Lemma 3.1 presolve: LP (4) with the forced arcs fixed at x = 1
# ---------------------------------------------------------------------------

#: (directed, unit costs, seed) of the small random hosts below.
HOSTS = [
    (directed, unit, seed)
    for directed in (True, False)
    for unit in (True, False)
    for seed in (1, 2)
]


def _host(directed, unit, seed):
    costs = None if unit else (1.0, 10.0)
    if directed:
        return gnp_random_digraph(9, 0.5, seed=seed, cost_range=costs)
    return gnp_random_graph(9, 0.5, seed=seed, weight_range=costs)


def _row_generation_over_lp3(g, r):
    """LP (4)'s optimum the long way: every arc in, every cut found."""
    model = build_ft2_lp(g, r)
    return model, solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])


def _reference_lp3(g, r):
    """LP (3) built arc by arc from the per-pair midpoint walk."""
    lp = LinearProgram(name=f"ft2spanner(r={r})")
    paths = {(u, v): two_path_midpoints(g, u, v) for u, v, _w in g.edges()}
    canon = canonical_edge_map(g)
    for (u, v) in paths:
        lp.add_variable(x_var(u, v), 0.0, 1.0, objective=g.weight(u, v))
    for (u, v), mids in paths.items():
        for z in mids:
            lp.add_variable(f_var(u, z, v), 0.0, None, objective=0.0)
    for (u, v), mids in paths.items():
        cover = {x_var(u, v): float(r + 1)}
        for z in mids:
            f = f_var(u, z, v)
            lp.add_constraint({f: 1.0, x_var(*canon[(u, z)]): -1.0},
                              LESS_EQUAL, 0.0, name=f"cap1:{u}-{z}-{v}")
            lp.add_constraint({f: 1.0, x_var(*canon[(z, v)]): -1.0},
                              LESS_EQUAL, 0.0, name=f"cap2:{u}-{z}-{v}")
            cover[f] = 1.0
        lp.add_constraint(cover, GREATER_EQUAL, float(r + 1), name=f"cover:{u}-{v}")
    return lp


def _rows(lp):
    return [(c.coeffs, c.sense, c.rhs, c.name) for c in lp.constraints]


class TestPresolve:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("directed,unit,seed", HOSTS)
    def test_forced_arcs_are_those_with_at_most_r_two_paths(
        self, directed, unit, seed, r
    ):
        g = _host(directed, unit, seed)
        model = build_ft2_lp(g, r, with_knapsack_cover=True)
        expected = {
            (u, v) for u, v, _w in g.edges() if len(two_path_midpoints(g, u, v)) <= r
        }
        assert model.forced == expected
        assert model.constant == pytest.approx(
            sum(w for u, v, w in g.edges() if (u, v) in expected)
        )
        free = [arc for arc in model.two_paths if arc not in expected]
        assert [name for name in model.lp.variable_names() if name[0] == "x"] == [
            x_var(*arc) for arc in free
        ]
        assert build_ft2_lp(g, r).forced == frozenset()

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("directed,unit,seed", HOSTS)
    def test_objective_equals_row_generation_over_lp3(self, directed, unit, seed, r):
        g = _host(directed, unit, seed)
        _model, full = _row_generation_over_lp3(g, r)
        assert solve_ft2_lp(g, r).objective == pytest.approx(
            full.solution.objective, rel=1e-9
        )

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("directed,unit,seed", HOSTS)
    def test_extended_solution_is_optimal_for_the_full_model(
        self, directed, unit, seed, r
    ):
        g = _host(directed, unit, seed)
        result = solve_ft2_lp(g, r)
        # x = 1 on the forced arcs; f = 0 on the dropped paths (absent).
        values = dict(result.solution.values)
        for arc in result.model.forced:
            values[x_var(*arc)] = 1.0
        full = build_ft2_lp(g, r)
        assert full.lp.check_feasible(values)
        extended = LPSolution(status="optimal", objective=result.objective, values=values)
        assert knapsack_cover_oracle(full)(extended) == []
        costs, _bounds, _ub, _eq = full.lp.matrix_form()
        cost = sum(c * values.get(name, 0.0)
                   for c, name in zip(costs, full.lp.variable_names()))
        assert cost == pytest.approx(result.objective, rel=1e-9)
        assert result.x_values() == full.x_values(extended)

    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("directed,unit,seed", HOSTS)
    def test_lp3_is_unchanged(self, directed, unit, seed, r):
        g = _host(directed, unit, seed)
        reference = _reference_lp3(g, r)
        model = build_ft2_lp(g, r)
        assert model.lp.variable_names() == reference.variable_names()
        assert model.lp.matrix_form() == reference.matrix_form()
        assert _rows(model.lp) == _rows(reference)
        result = solve_ft2_lp(g, r, with_knapsack_cover=False)
        solution = reference.solve()
        assert result.objective == solution.objective
        assert result.solution.values == solution.values
        assert result.cuts_added == 0

    def test_reduced_model_structure(self):
        g = _host(True, False, 1)
        r = 1
        model = build_ft2_lp(g, r, with_knapsack_cover=True)
        forced = model.forced
        canon = canonical_edge_map(g)
        free = {arc: mids for arc, mids in model.two_paths.items() if arc not in forced}
        assert forced and free
        paths = sum(len(mids) for mids in free.values())
        assert model.lp.num_variables == len(free) + paths
        caps = sum(
            (canon[(u, z)] not in forced) + (canon[(z, v)] not in forced)
            for (u, v), mids in free.items() for z in mids
        )
        assert model.lp.num_constraints == caps + len(free)
        for (u, v), mids in free.items():
            for z in mids:
                bought = canon[(u, z)] in forced or canon[(z, v)] in forced
                assert model.lp.variable(f_var(u, z, v)).upper == (1.0 if bought else None)

    def test_oracle_still_cuts_where_arcs_are_not_forced(self):
        g = gnp_random_digraph(30, 0.2, seed=1, cost_range=(1.0, 10.0))
        result = solve_ft2_lp(g, 1)
        assert 0 < result.forced_arcs < g.num_edges
        assert result.cuts_added >= 1

    @pytest.mark.parametrize("directed,unit,seed", HOSTS)
    def test_rounding_buys_every_forced_arc(self, directed, unit, seed):
        g = _host(directed, unit, seed)
        for r in (1, 2):
            approx = approximate_ft2_spanner(g, r, seed=seed)
            forced = solve_ft2_lp(g, r).model.forced
            assert approx.forced_arcs == len(forced)
            assert all(approx.spanner.has_edge(u, v) for u, v in forced)
            assert is_ft_2spanner(approx.spanner, g, r)
