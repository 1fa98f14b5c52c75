"""LP modelling layer: variables, constraints, feasibility checking."""

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
    solve_with_simplex,
)
from repro.lp import scipy_backend


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
        """Refused when added, so no backend sees it; the model is left
        as it was, and every backend solves it alike."""
        lp = LinearProgram()
        lp.add_variable("x", 1.0, 3.0, objective=1.0)
        lp.add_variable("z", -math.inf, math.inf, objective=0.0)
        lp.add_constraint({"x": 1.0, "z": 1.0}, EQUAL, 2.0)
        with pytest.raises(LPError):
            add(lp)
        assert lp.variable_names() == ["x", "z"] and lp.num_constraints == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scipy_backend, "highs_binding", lambda: None)
            by_linprog = solve_with_scipy(lp)
        for solution in (by_linprog, solve_with_scipy(lp), solve_with_simplex(lp)):
            assert solution.status == "optimal"
            assert solution.values == pytest.approx({"x": 1.0, "z": 1.0})


class TestConstraintEvaluation:
    def test_evaluate_and_satisfied(self):
        con = Constraint({"x": 2.0, "y": -1.0}, GREATER_EQUAL, 1.0)
        assert con.evaluate({"x": 1.0, "y": 0.5}) == 1.5
        assert con.satisfied({"x": 1.0, "y": 0.5})
        assert not con.satisfied({"x": 0.0, "y": 0.0})

    def test_violation_amounts(self):
        le = Constraint({"x": 1.0}, LESS_EQUAL, 1.0)
        ge = Constraint({"x": 1.0}, GREATER_EQUAL, 1.0)
        eq = Constraint({"x": 1.0}, EQUAL, 1.0)
        assert le.violation({"x": 3.0}) == 2.0
        assert le.violation({"x": 0.0}) == 0.0
        assert ge.violation({"x": 0.0}) == 1.0
        assert eq.violation({"x": 1.5}) == 0.5

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
            lp.solve(backend="scipy")

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

    def test_objective_value_helper(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=2.0)
        lp.add_variable("y", objective=3.0)
        assert lp.objective_value({"x": 1.0, "y": 2.0}) == 8.0

    def test_unknown_backend(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.solve(backend="gurobi")

    def test_empty_model(self):
        lp = LinearProgram()
        sol = lp.solve()
        assert sol.objective == 0.0


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

    @pytest.mark.parametrize("backend", [solve_with_scipy, solve_with_simplex])
    @pytest.mark.parametrize("sense, rhs, holds", CONSTANT_ROWS)
    def test_model_without_variables(self, backend, sense, rhs, holds):
        lp = LinearProgram()
        lp.add_constraint({}, sense, rhs)
        solution = backend(lp)
        assert solution.status == ("optimal" if holds else "infeasible")
        if holds:
            assert solution.objective == 0.0 and solution.values == {}

    @pytest.mark.parametrize("backend", [solve_with_scipy, solve_with_simplex])
    @pytest.mark.parametrize("sense, rhs, holds", CONSTANT_ROWS)
    def test_same_row_beside_a_declared_variable(self, backend, sense, rhs, holds):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=1.0)
        lp.add_constraint({"x": 0.0}, sense, rhs)
        assert backend(lp).status == ("optimal" if holds else "infeasible")

    @pytest.mark.parametrize("sense, rhs, holds", CONSTANT_ROWS)
    def test_solve_raises_on_a_failing_constant_row(self, sense, rhs, holds):
        lp = LinearProgram()
        lp.add_constraint({}, sense, rhs)
        if holds:
            assert lp.solve().is_optimal
        else:
            with pytest.raises(InfeasibleLP):
                lp.solve()
