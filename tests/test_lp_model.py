"""LP modelling layer: variables, constraints, feasibility, known optima."""

from __future__ import annotations

import math

import pytest

from repro.errors import InfeasibleLP, LPError, UnboundedLP
from repro.lp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    Constraint,
    LinearProgram,
    solve_with_scipy,
)
from repro.lp import scipy_backend


def solve_with_linprog(lp):
    """``solve_with_scipy`` through ``linprog``, as on a SciPy without the binding."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "highs_binding", lambda: None)
        return solve_with_scipy(lp)


def standard_form_lp(a, b, c):
    """``min c x`` s.t. ``a x == b``, ``x >= 0``, one row per line of ``a``."""
    lp = LinearProgram("standard")
    for j, cost in enumerate(c):
        lp.add_variable(j, 0.0, None, objective=cost)
    for row, rhs in zip(a, b):
        lp.add_constraint(dict(enumerate(row)), EQUAL, rhs)
    return lp


class TestModelBuilding:
    def test_variable_declaration(self):
        lp = LinearProgram()
        v = lp.add_variable("x", 0.0, 2.0, objective=3.0)
        assert v.index == 0
        assert lp.num_variables == 1
        assert lp.variable("x").upper == 2.0

    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_variable("x")

    def test_empty_domain_rejected(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_variable("x", lower=2.0, upper=1.0)

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_constraint({"x": 1.0}, LESS_EQUAL, 1.0)

    def test_unknown_sense(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint({"x": 1.0}, "<", 1.0)

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        con = lp.add_constraint({"x": 1.0, "y": 0.0}, LESS_EQUAL, 1.0)
        assert "y" not in con.coeffs

    def test_unknown_variable_lookup(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.variable("missing")

    @pytest.mark.parametrize(
        "add",
        [
            lambda lp: lp.add_variable("y", objective=math.inf),
            lambda lp: lp.add_variable("y", objective=math.nan),
            lambda lp: lp.add_variable("y", lower=math.nan),
            lambda lp: lp.add_variable("y", upper=math.nan),
            lambda lp: lp.add_constraint({"x": 1.0}, LESS_EQUAL, math.inf),
            lambda lp: lp.add_constraint({"x": 1.0}, GREATER_EQUAL, -math.inf),
            lambda lp: lp.add_constraint({"x": 1.0}, EQUAL, math.nan),
            lambda lp: lp.add_constraint({"x": math.inf}, LESS_EQUAL, 1.0),
            lambda lp: lp.add_constraint({"x": 1.0, "z": math.nan}, EQUAL, 1.0),
        ],
        ids=[
            "inf-cost", "nan-cost", "nan-lower", "nan-upper", "inf-rhs",
            "-inf-rhs", "nan-rhs", "inf-coeff", "nan-coeff",
        ],
    )
    def test_non_finite_data_rejected_on_every_backend(self, add):
        """Refused when added, so HiGHS never sees it; the model is left
        as it was, and both HiGHS paths solve it alike."""
        lp = LinearProgram()
        lp.add_variable("x", 1.0, 3.0, objective=1.0)
        lp.add_variable("z", -math.inf, math.inf, objective=0.0)
        lp.add_constraint({"x": 1.0, "z": 1.0}, EQUAL, 2.0)
        with pytest.raises(LPError):
            add(lp)
        assert lp.variable_names() == ["x", "z"] and lp.num_constraints == 1
        for solution in (solve_with_linprog(lp), solve_with_scipy(lp)):
            assert solution.status == "optimal"
            assert solution.values == pytest.approx({"x": 1.0, "z": 1.0})


class TestConstraintEvaluation:
    def test_evaluate_and_satisfied(self):
        con = Constraint({"x": 2.0, "y": -1.0}, GREATER_EQUAL, 1.0)
        assert con.evaluate({"x": 1.0, "y": 0.5}) == 1.5
        assert con.satisfied({"x": 1.0, "y": 0.5})
        assert not con.satisfied({"x": 0.0, "y": 0.0})

    def test_missing_values_default_zero(self):
        con = Constraint({"x": 1.0}, GREATER_EQUAL, 1.0)
        assert not con.satisfied({})


class TestSolving:
    def test_simple_minimization(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 3.0)
        sol = lp.solve()
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0)
        assert sol.value("x") == pytest.approx(3.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, 1.0, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 2.0)
        with pytest.raises(InfeasibleLP):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=-1.0)
        with pytest.raises(UnboundedLP):
            lp.solve()

    def test_equality_constraint(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=1.0)
        lp.add_variable("y", 0.0, None, objective=2.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, EQUAL, 4.0)
        sol = lp.solve()
        assert sol.objective == pytest.approx(4.0)
        assert sol.value("x") == pytest.approx(4.0)

    def test_check_feasible(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, 1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 0.5)
        assert lp.check_feasible({"x": 0.7})
        assert not lp.check_feasible({"x": 0.3})
        assert not lp.check_feasible({"x": 1.4})

    def test_empty_model(self):
        lp = LinearProgram()
        sol = lp.solve()
        assert sol.objective == 0.0

    def test_upper_bounds(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, 2.0, objective=-1.0)
        assert lp.solve().values["x"] == pytest.approx(2.0)

    def test_shifted_lower_bounds(self):
        lp = LinearProgram()
        lp.add_variable("x", 1.5, None, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 1.0)
        assert lp.solve().values["x"] == pytest.approx(1.5)

    def test_free_variable(self):
        lp = LinearProgram()
        lp.add_variable("x", -math.inf, None, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, -3.0)
        assert lp.solve().values["x"] == pytest.approx(-3.0)

    def test_no_constraints_bounded(self):
        lp = LinearProgram()
        lp.add_variable("x", 1.0, 2.0, objective=5.0)
        assert lp.solve().objective == pytest.approx(5.0)

    def test_no_constraints_unbounded(self):
        # No rows at all: both HiGHS paths report the ray as a verdict.
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=-1.0)
        assert solve_with_scipy(lp).status == "unbounded"
        assert solve_with_linprog(lp).status == "unbounded"

    def test_textbook_lp(self):
        # min -x - 2y st x + y <= 4, x <= 3, y <= 2 (as equalities w/ slack)
        lp = standard_form_lp(
            [[1.0, 1.0, 1.0, 0.0, 0.0],
             [1.0, 0.0, 0.0, 1.0, 0.0],
             [0.0, 1.0, 0.0, 0.0, 1.0]],
            [4.0, 3.0, 2.0],
            [-1.0, -2.0, 0.0, 0.0, 0.0],
        )
        assert lp.solve().objective == pytest.approx(-6.0)  # x=2, y=2

    def test_infeasible(self):
        # x = -1 with x >= 0.
        with pytest.raises(InfeasibleLP):
            standard_form_lp([[1.0]], [-1.0], [1.0]).solve()

    def test_unbounded(self):
        # min -x st x - s = 0: x grows with s.
        lp = standard_form_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        with pytest.raises(UnboundedLP):
            lp.solve()

    def test_degenerate_redundant_rows(self):
        # Two identical rows: still solvable.
        lp = standard_form_lp([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0], [1.0, 0.0])
        assert lp.solve().objective == pytest.approx(0.0)

    def test_cost_past_the_dual_tolerance_is_unbounded(self):
        """min -1.192092896e-07 x1 s.t. x1 >= -0.5, x >= 0: an unbounded
        ray whose cost is past HiGHS's dual tolerance (1e-7)."""
        lp = LinearProgram()
        lp.add_variable(0, 0.0, None, 0.0)
        lp.add_variable(1, 0.0, None, -1.192092896e-07)
        lp.add_constraint({1: 1.0}, GREATER_EQUAL, -0.5)
        with pytest.raises(UnboundedLP):
            lp.solve()


#: Rows with no nonzero coefficient: ``0 sense rhs`` and whether it holds.
CONSTANT_ROWS = [
    (GREATER_EQUAL, 1.0, False),
    (LESS_EQUAL, -1.0, False),
    (EQUAL, 2.0, False),
    (GREATER_EQUAL, -1.0, True),
    (LESS_EQUAL, 1.0, True),
    (EQUAL, 0.0, True),
]


class TestConstantRows:
    """A row over no variable is a constant that either holds or fails."""

    @pytest.mark.parametrize("solve", [solve_with_scipy, solve_with_linprog])
    @pytest.mark.parametrize("sense, rhs, holds", CONSTANT_ROWS)
    def test_model_without_variables(self, solve, sense, rhs, holds):
        lp = LinearProgram()
        lp.add_constraint({}, sense, rhs)
        solution = solve(lp)
        assert solution.status == ("optimal" if holds else "infeasible")
        if holds:
            assert solution.objective == 0.0 and solution.values == {}

    @pytest.mark.parametrize("solve", [solve_with_scipy, solve_with_linprog])
    @pytest.mark.parametrize("sense, rhs, holds", CONSTANT_ROWS)
    def test_same_row_beside_a_declared_variable(self, solve, sense, rhs, holds):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=1.0)
        lp.add_constraint({"x": 0.0}, sense, rhs)
        assert solve(lp).status == ("optimal" if holds else "infeasible")

    @pytest.mark.parametrize("sense, rhs, holds", CONSTANT_ROWS)
    def test_solve_raises_on_a_failing_constant_row(self, sense, rhs, holds):
        lp = LinearProgram()
        lp.add_constraint({}, sense, rhs)
        if holds:
            assert lp.solve().is_optimal
        else:
            with pytest.raises(InfeasibleLP):
                lp.solve()
