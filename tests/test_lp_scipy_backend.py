"""The HiGHS backend: the matrices linprog receives, and its failure verdicts.

``solve_with_scipy`` copies its constraint matrices from the CSR rows
``LinearProgram.matrix_form`` keeps as constraints are added. These
tests pin what HiGHS receives to a reference built the way the backend
used to build it, by walking ``lp.constraints`` on every solve: the
same objective, bounds, ``A_ub``/``b_ub`` (``>=`` rows
negated) and ``A_eq``/``b_eq``, with the same dtypes and bit-identical
values. Any difference could move which optimal vertex HiGHS returns,
and with it the rounded spanners.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult
from scipy.sparse import csr_matrix, issparse

from repro.errors import InfeasibleLP, LPError, SolverLimit, UnboundedLP
from repro.graph import gnp_random_digraph
from repro.lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, solve_with_cuts
from repro.two_spanner.lp_new import build_ft2_lp, knapsack_cover_oracle


def reference_inputs(lp):
    """linprog's inputs built by walking every constraint dict."""
    names = lp.variable_names()
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    bounds = []
    for name in names:
        var = lp.variable(name)
        c[index[name]] = var.objective
        lower = None if math.isinf(var.lower) else var.lower
        upper = None if (var.upper is None or math.isinf(var.upper)) else var.upper
        bounds.append((lower, upper))
    ub_data, ub_rows, ub_cols, b_ub = [], [], [], []
    eq_data, eq_rows, eq_cols, b_eq = [], [], [], []
    for con in lp.constraints:
        if con.sense == EQUAL:
            for vname, coeff in con.coeffs.items():
                eq_rows.append(len(b_eq))
                eq_cols.append(index[vname])
                eq_data.append(coeff)
            b_eq.append(con.rhs)
        else:
            sign = 1.0 if con.sense == LESS_EQUAL else -1.0
            for vname, coeff in con.coeffs.items():
                ub_rows.append(len(b_ub))
                ub_cols.append(index[vname])
                ub_data.append(sign * coeff)
            b_ub.append(sign * con.rhs)
    return {
        "c": c,
        "bounds": bounds,
        "A_ub": csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(len(b_ub), n))
        if b_ub else None,
        "b_ub": np.array(b_ub) if b_ub else None,
        "A_eq": csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(len(b_eq), n))
        if b_eq else None,
        "b_eq": np.array(b_eq) if b_eq else None,
    }


def assert_same_dense(got, want):
    if want is None:
        assert got is None
        return
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, -0.0 included


def assert_same_sparse(got, want):
    if want is None:
        assert got is None
        return
    assert issparse(got)
    got, want = got.tocsr(copy=True), want.tocsr(copy=True)
    got.sort_indices()
    want.sort_indices()
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


@pytest.fixture
def recorder(monkeypatch):
    """Check every linprog call against the reference of the model solved."""
    calls = []
    real = scipy.optimize.linprog

    def record(lp):
        def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                    bounds=None, method=None):
            want = reference_inputs(lp)
            assert_same_dense(c, want["c"])
            assert list(bounds) == want["bounds"]
            assert repr(list(bounds)) == repr(want["bounds"])
            assert_same_sparse(A_ub, want["A_ub"])
            assert_same_dense(b_ub, want["b_ub"])
            assert_same_sparse(A_eq, want["A_eq"])
            assert_same_dense(b_eq, want["b_eq"])
            calls.append(lp.num_constraints)
            return real(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                        bounds=bounds, method=method)

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        return calls

    return record


class TestHighsInputs:
    def test_every_cutting_plane_round_of_an_ft2_lp(self, recorder):
        graph = gnp_random_digraph(30, 0.2, seed=3, cost_range=(1.0, 10.0))
        model = build_ft2_lp(graph, 2)
        calls = recorder(model.lp)
        result = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])
        assert result.cuts_added > 0  # rows were appended between rounds
        assert len(calls) == result.rounds >= 2
        assert calls == sorted(calls) and calls[0] < calls[-1]

    def test_hand_built_rows_of_every_sense(self, recorder):
        lp = LinearProgram("hand")
        lp.add_variable("x", 0.0, 4.0, objective=1.0)
        lp.add_variable("y", -math.inf, None, objective=2.0)
        lp.add_variable("z", 1.0, math.inf, objective=-0.5)
        lp.add_constraint({"x": 1.0, "y": 2.0}, GREATER_EQUAL, 3.0)
        lp.add_constraint({"z": 1.0, "x": 0.0}, LESS_EQUAL, 6.0)  # zero dropped
        lp.add_constraint({"y": 1.0, "x": -1.0}, EQUAL, 0.0)
        lp.add_constraint({"z": 3.0, "y": -1.0, "x": 0.5}, GREATER_EQUAL, 0.0)
        calls = recorder(lp)
        first = lp.solve(backend="scipy")
        # A variable declared after a solve joins the objective, the
        # bounds and later rows.
        lp.add_variable("w", 0.0, 2.0, objective=-1.0)
        lp.add_constraint({"w": 1.0, "z": -1.0}, LESS_EQUAL, 0.0)
        lp.add_constraint({"w": 2.0, "x": 1.0}, EQUAL, 3.0)
        second = lp.solve(backend="scipy")
        assert calls == [4, 6]
        assert set(first.values) == {"x", "y", "z"}
        assert set(second.values) == {"x", "y", "z", "w"}

    def test_model_without_rows(self, recorder):
        lp = LinearProgram("free")
        lp.add_variable("x", 1.0, 3.0, objective=1.0)
        lp.add_variable("y", 0.0, 2.0, objective=-1.0)
        calls = recorder(lp)
        solution = lp.solve(backend="scipy")
        assert calls == [0]
        assert solution.values == {"x": 1.0, "y": 2.0}

    def test_values_follow_declaration_order(self):
        lp = LinearProgram()
        for i, name in enumerate(["b", "a", ("t", 1)]):
            lp.add_variable(name, float(i), float(i), objective=1.0)
        solution = lp.solve(backend="scipy")
        assert list(solution.values) == ["b", "a", ("t", 1)]
        assert solution.values == {"b": 0.0, "a": 1.0, ("t", 1): 2.0}


class TestHighsFailures:
    """Only HiGHS's statuses 2 and 3 are infeasible and unbounded verdicts."""

    @staticmethod
    def stub(monkeypatch, status, message):
        def linprog(*_args, **_kwargs):
            return OptimizeResult(
                status=status, success=status == 0, message=message,
                x=np.array([2.0]), fun=2.0,
            )

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        lp = LinearProgram("stubbed")
        lp.add_variable("x", 0.0, None, objective=1.0)
        lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 2.0)
        return lp

    def test_iteration_limit_is_a_solver_limit(self, monkeypatch):
        lp = self.stub(monkeypatch, 1, "Iteration limit reached.")
        with pytest.raises(SolverLimit, match="Iteration limit reached"):
            lp.solve(backend="scipy")

    def test_numerical_trouble_is_an_error_not_infeasibility(self, monkeypatch):
        lp = self.stub(monkeypatch, 4, "Numerical difficulties encountered.")
        with pytest.raises(LPError, match="Numerical difficulties") as info:
            lp.solve(backend="scipy")
        assert not isinstance(info.value, (InfeasibleLP, SolverLimit))

    @pytest.mark.parametrize(
        "status, error", [(2, InfeasibleLP), (3, UnboundedLP)]
    )
    def test_infeasible_and_unbounded_keep_their_verdicts(
        self, monkeypatch, status, error
    ):
        lp = self.stub(monkeypatch, status, "stubbed")
        with pytest.raises(error):
            lp.solve(backend="scipy")

    def test_success_returns_the_solution(self, monkeypatch):
        lp = self.stub(monkeypatch, 0, "Optimization terminated successfully.")
        solution = lp.solve(backend="scipy")
        assert solution.is_optimal
        assert solution.objective == 2.0 and solution.values == {"x": 2.0}
