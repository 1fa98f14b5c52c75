"""Pure-python simplex: known optima plus randomized scipy cross-checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lp import (
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    solve_standard_form,
    solve_with_scipy,
    solve_with_simplex,
)
from repro.compiled import compiled_available
from repro.errors import InfeasibleLP, UnboundedLP


class TestStandardForm:
    def test_textbook_lp(self):
        # min -x - 2y st x + y <= 4, x <= 3, y <= 2 (as equalities w/ slack)
        a = np.array([
            [1.0, 1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([4.0, 3.0, 2.0])
        c = np.array([-1.0, -2.0, 0.0, 0.0, 0.0])
        status, x, obj = solve_standard_form(a, b, c)
        assert status == "optimal"
        assert obj == pytest.approx(-6.0)  # x=2, y=2

    def test_infeasible(self):
        # x = -1 with x >= 0 is infeasible.
        a = np.array([[1.0]])
        b = np.array([-1.0])
        c = np.array([1.0])
        # b is negated internally; row becomes -x = 1 -> x = -1 infeasible
        status, _x, _obj = solve_standard_form(a, b, c)
        assert status == "infeasible"

    def test_unbounded(self):
        # min -x st x - s = 0 (x free upward)
        a = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        c = np.array([-1.0, 0.0])
        status, _x, _obj = solve_standard_form(a, b, c)
        assert status == "unbounded"

    def test_degenerate_redundant_rows(self):
        # Two identical rows: still solvable.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0])
        c = np.array([1.0, 0.0])
        status, x, obj = solve_standard_form(a, b, c)
        assert status == "optimal"
        assert obj == pytest.approx(0.0)


class TestGeneralFormConversion:
    def test_upper_bounds(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, 2.0, objective=-1.0)
        sol = solve_with_simplex(lp)
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(2.0)

    def test_shifted_lower_bounds(self):
        lp = LinearProgram()
        lp.add_variable("x", 1.5, None, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 1.0)
        sol = solve_with_simplex(lp)
        assert sol.values["x"] == pytest.approx(1.5)

    def test_free_variable_split(self):
        lp = LinearProgram()
        lp.add_variable("x", -math.inf, None, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, -3.0)
        sol = solve_with_simplex(lp)
        assert sol.values["x"] == pytest.approx(-3.0)

    def test_no_constraints_bounded(self):
        lp = LinearProgram()
        lp.add_variable("x", 1.0, 2.0, objective=5.0)
        sol = solve_with_simplex(lp)
        assert sol.objective == pytest.approx(5.0)

    def test_no_constraints_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, None, objective=-1.0)
        sol = solve_with_simplex(lp)
        assert sol.status == "unbounded"


@st.composite
def random_feasible_lp(draw):
    """A random LP guaranteed feasible by construction around a known point."""
    num_vars = draw(st.integers(2, 5))
    num_cons = draw(st.integers(1, 5))
    rng_vals = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    lp1 = LinearProgram()
    lp2 = LinearProgram()
    point = {}
    for i in range(num_vars):
        obj = draw(rng_vals)
        upper = draw(st.sampled_from([None, 3.0, 5.0]))
        lp1.add_variable(i, 0.0, upper, obj)
        lp2.add_variable(i, 0.0, upper, obj)
        point[i] = draw(st.floats(0.0, 1.0, allow_nan=False))
    for _ in range(num_cons):
        coeffs = {
            i: draw(rng_vals) for i in range(num_vars) if draw(st.booleans())
        }
        if not coeffs:
            coeffs = {0: 1.0}
        lhs = sum(c * point[i] for i, c in coeffs.items())
        sense = draw(st.sampled_from([LESS_EQUAL, GREATER_EQUAL]))
        rhs = lhs + 0.5 if sense == LESS_EQUAL else lhs - 0.5
        lp1.add_constraint(coeffs, sense, rhs)
        lp2.add_constraint(coeffs, sense, rhs)
    return lp1, lp2


def cost_past_the_dual_tolerance():
    """min -1.192092896e-07 x1 s.t. x1 >= -0.5, x >= 0: an unbounded ray.

    The cost is past the dual tolerance (1e-7), so HiGHS calls the LP
    unbounded; so must the simplex, on either tier.
    """
    pair = []
    for _ in range(2):
        lp = LinearProgram()
        lp.add_variable(0, 0.0, None, 0.0)
        lp.add_variable(1, 0.0, None, -1.192092896e-07)
        lp.add_constraint({1: 1.0}, GREATER_EQUAL, -0.5)
        pair.append(lp)
    return tuple(pair)


class TestCrossCheck:
    @settings(max_examples=40, deadline=None)
    @given(pair=random_feasible_lp())
    @example(pair=cost_past_the_dual_tolerance())
    def test_simplex_matches_scipy(self, pair):
        lp_simplex, lp_scipy = pair
        a = solve_with_simplex(lp_simplex)
        b = solve_with_scipy(lp_scipy)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective == pytest.approx(b.objective, rel=1e-5, abs=1e-6)
            # simplex's solution must be feasible for the model
            assert lp_simplex.check_feasible(a.values, tol=1e-5)

    @pytest.mark.parametrize("method", [
        "dict",
        pytest.param("compiled", marks=pytest.mark.skipif(
            not compiled_available(), reason="compiled backend unavailable",
        )),
    ])
    def test_cost_past_the_dual_tolerance_is_unbounded(self, method):
        lp_simplex, lp_scipy = cost_past_the_dual_tolerance()
        assert solve_with_scipy(lp_scipy).status == "unbounded"
        assert solve_with_simplex(lp_simplex, method=method).status == "unbounded"
