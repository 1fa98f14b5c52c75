"""The HiGHS backend: the model HiGHS holds, and its failure verdicts.

``solve_with_scipy`` fills SciPy's compiled HiGHS binding from the CSR
rows ``LinearProgram.matrix_form`` keeps as constraints are added, with
the calls and options ``linprog(method="highs")`` makes through it.
These tests pin the model HiGHS holds after ``passModel`` to a
reference built the way the backend used to build it, by walking
``lp.constraints`` on every solve and converting the result the way
``linprog`` converts it: the same costs, column bounds, row bounds
(``>=`` rows negated into the ``<=`` block, then the ``==`` block) and
column-wise matrix, bit for bit. Any difference could move which
optimal vertex HiGHS returns, and with it the rounded spanners. Where
the binding does not import, ``linprog`` itself runs; that fallback is
pinned to the binding's solutions. The input and verdict tests run on
every path this SciPy has: ``linprog`` (the binding hidden, and what
it receives checked against the same reference) everywhere, and the
binding where it imports. Apart from those paths, the optimum of every
solve is checked against HiGHS's interior-point method, a different
algorithm from the dual simplex every solve runs.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult
from scipy.sparse import coo_array, csc_array, csr_matrix, issparse, vstack

import repro
from repro.errors import InfeasibleLP, LPError, SolverLimit, UnboundedLP
from repro.graph import complete_digraph, gnp_random_digraph
from repro.lp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    solve_with_cuts,
    solve_with_scipy,
)
from repro.lp import scipy_backend
from repro.lp.scipy_backend import highs_binding
from repro.two_spanner.lp_new import build_ft2_lp, knapsack_cover_oracle, solve_ft2_lp
from repro.two_spanner.lp_old import solve_old_lp

BINDING = "scipy.optimize._highspy._core"

needs_binding = pytest.mark.skipif(
    highs_binding() is None, reason="this SciPy has no compiled HiGHS binding"
)


@contextlib.contextmanager
def binding_hidden():
    """Make ``import scipy.optimize._highspy._core`` fail, as on old SciPy."""
    saved = sys.modules.get(BINDING)
    sys.modules[BINDING] = None
    try:
        yield
    finally:
        if saved is None:
            del sys.modules[BINDING]
        else:
            sys.modules[BINDING] = saved


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


def reference_model(lp):
    """The reference inputs as linprog hands them to HiGHS.

    ``lhs <= A x <= rhs`` with ``A`` the ``<=`` rows stacked over the
    ``==`` rows in CSC form, and ``None`` bounds read as infinite.
    """
    want = reference_inputs(lp)
    n = len(want["c"])
    blocks = [
        coo_array((0, n)) if want[key] is None else coo_array(want[key])
        for key in ("A_ub", "A_eq")
    ]
    matrix = csc_array(vstack(blocks))
    b_ub = np.array([]) if want["b_ub"] is None else want["b_ub"]
    b_eq = np.array([]) if want["b_eq"] is None else want["b_eq"]
    return {
        "col_cost_": want["c"],
        "col_lower_": np.array([-np.inf if lo is None else lo for lo, _ in want["bounds"]]),
        "col_upper_": np.array([np.inf if hi is None else hi for _, hi in want["bounds"]]),
        "row_lower_": np.concatenate((np.full(len(b_ub), -np.inf), b_eq)),
        "row_upper_": np.concatenate((b_ub, b_eq)),
        "start_": matrix.indptr,
        "index_": matrix.indices,
        "value_": matrix.data,
    }


def assert_same_model(held, lp):
    """HiGHS's copy of the model equals the reference, bit for bit."""
    core = highs_binding()
    want = reference_model(lp)
    assert held.num_col_ == held.a_matrix_.num_col_ == len(want["col_cost_"])
    assert held.num_row_ == held.a_matrix_.num_row_ == len(want["row_upper_"])
    assert held.a_matrix_.format_ == core.MatrixFormat.kColwise
    for field in ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_"):
        got = np.asarray(getattr(held, field), dtype=float)
        assert got.tobytes() == want[field].tobytes(), field  # -0.0 included
    for field in ("start_", "index_"):
        got = list(getattr(held.a_matrix_, field))
        assert got == want[field].tolist(), field
    got = np.asarray(held.a_matrix_.value_, dtype=float)
    assert got.tobytes() == want["value_"].tobytes()


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


def option_values(highs):
    """Every option a HiGHS instance holds, by name."""
    options = highs.getOptions()
    return {
        name: getattr(options, name)
        for name in dir(options)
        if not name.startswith("_") and not callable(getattr(options, name))
    }


@pytest.fixture(scope="module")
def linprog_options():
    """The options ``linprog(method="highs")`` hands HiGHS."""
    core = highs_binding()
    held = []

    class Capturing(core._Highs):
        def passModel(self, model):
            held.append(option_values(self))
            return super().passModel(model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_Highs", Capturing)
        scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-1.0], method="highs")
    assert len(held) == 1
    return held[0]


@contextlib.contextmanager
def linprog_recorded(lp):
    """Check every ``linprog`` call against the reference of ``lp``.

    The binding is hidden, so ``linprog`` is the path the solves take.
    """
    calls = []
    real = scipy.optimize.linprog

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

    with pytest.MonkeyPatch.context() as patch, binding_hidden():
        patch.setattr(scipy.optimize, "linprog", linprog)
        yield calls


@contextlib.contextmanager
def binding_recorded(lp, options):
    """Check the model and options HiGHS holds after every ``passModel``."""
    core = highs_binding()
    calls = []

    class Recording(core._Highs):
        def passModel(self, model):
            status = super().passModel(model)
            assert_same_model(self.getLp(), lp)
            assert option_values(self) == options
            calls.append(lp.num_constraints)
            return status

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_Highs", Recording)
        yield calls


@pytest.fixture
def recorders(request):
    """A recorder per HiGHS path this SciPy has.

    ``linprog`` (the binding hidden) on every SciPy, and the binding
    where it imports. Each is a context manager over one model that
    yields the constraint counts of the solves it checked.
    """
    paths = [linprog_recorded]
    if highs_binding() is not None:
        options = request.getfixturevalue("linprog_options")
        paths.append(functools.partial(binding_recorded, options=options))
    return paths


def ft2_rounds(monkeypatch, graph, r, solve):
    """Run the ft2 LP's cutting-plane loop with ``solve`` on every round."""
    model = build_ft2_lp(graph, r)
    with monkeypatch.context() as patch:
        patch.setattr(scipy_backend, "solve_with_scipy", solve)
        return solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])


def assert_same_solution(got, want):
    assert got.status == want.status
    assert repr(got.objective) == repr(want.objective)
    assert list(got.values) == list(want.values)
    assert (
        np.array(list(got.values.values())).tobytes()
        == np.array(list(want.values.values())).tobytes()
    )


class TestHighsInputs:
    def test_every_cutting_plane_round_of_an_ft2_lp(self, recorders):
        graph = gnp_random_digraph(30, 0.2, seed=3, cost_range=(1.0, 10.0))
        for recorded in recorders:
            model = build_ft2_lp(graph, 2)
            with recorded(model.lp) as calls:
                result = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])
            assert result.cuts_added > 0  # rows were appended between rounds
            assert len(calls) == result.rounds >= 2
            assert calls == sorted(calls) and calls[0] < calls[-1]

    def test_hand_built_rows_of_every_sense(self, recorders):
        for recorded in recorders:
            lp = LinearProgram("hand")
            lp.add_variable("x", 0.0, 4.0, objective=1.0)
            lp.add_variable("y", -math.inf, None, objective=2.0)
            lp.add_variable("z", 1.0, math.inf, objective=-0.5)
            lp.add_constraint({"x": 1.0, "y": 2.0}, GREATER_EQUAL, 3.0)
            lp.add_constraint({"z": 1.0, "x": 0.0}, LESS_EQUAL, 6.0)  # zero dropped
            lp.add_constraint({"y": 1.0, "x": -1.0}, EQUAL, 0.0)
            lp.add_constraint({"z": 3.0, "y": -1.0, "x": 0.5}, GREATER_EQUAL, 0.0)
            with recorded(lp) as calls:
                first = lp.solve()
                # A variable declared after a solve joins the objective,
                # the bounds and later rows.
                lp.add_variable("w", 0.0, 2.0, objective=-1.0)
                lp.add_constraint({"w": 1.0, "z": -1.0}, LESS_EQUAL, 0.0)
                lp.add_constraint({"w": 2.0, "x": 1.0}, EQUAL, 3.0)
                second = lp.solve()
            assert calls == [4, 6]
            assert set(first.values) == {"x", "y", "z"}
            assert set(second.values) == {"x", "y", "z", "w"}

    def test_model_without_rows(self, recorders):
        for recorded in recorders:
            lp = LinearProgram("free")
            lp.add_variable("x", 1.0, 3.0, objective=1.0)
            lp.add_variable("y", 0.0, 2.0, objective=-1.0)
            with recorded(lp) as calls:
                solution = lp.solve()
            assert calls == [0]
            assert solution.values == {"x": 1.0, "y": 2.0}

    def test_values_follow_declaration_order(self):
        for path in (binding_hidden, contextlib.nullcontext):
            lp = LinearProgram()
            for i, name in enumerate(["b", "a", ("t", 1)]):
                lp.add_variable(name, float(i), float(i), objective=1.0)
            with path():
                solution = lp.solve()
            assert list(solution.values) == ["b", "a", ("t", 1)]
            assert solution.values == {"b": 0.0, "a": 1.0, ("t", 1): 2.0}

    @needs_binding
    @pytest.mark.parametrize("r", [1, 2])
    def test_every_round_equals_linprog_on_lp_sweep_hosts(self, monkeypatch, r):
        """lp-sweep's hosts: the binding's answer is linprog's, bit for bit."""
        rounds = []

        def both(lp):
            solution = solve_with_scipy(lp)
            with binding_hidden():
                assert_same_solution(solution, solve_with_scipy(lp))
            rounds.append(lp.num_constraints)
            return solution

        for seed in (11, 12):
            graph = gnp_random_digraph(30, 0.2, seed=seed, cost_range=(1.0, 10.0))
            result = ft2_rounds(monkeypatch, graph, r, both)
            assert result.rounds >= 2
        assert len(rounds) >= 4


#: HiGHS's text for the model statuses stubbed below.
STATUS_TEXT = {
    "kOptimal": "Optimal",
    "kInfeasible": "Infeasible",
    "kModelError": "Model error",
    "kUnbounded": "Unbounded",
    "kTimeLimit": "Time limit reached",
    "kIterationLimit": "Iteration limit reached",
    "kSolveError": "Solve error",
}

#: linprog's status for a HiGHS model status; any other is its 4.
LINPROG_STATUS = {
    "kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
    "kInfeasible": 2, "kModelError": 2, "kUnbounded": 3,
}


@contextlib.contextmanager
def linprog_stubbed(name):
    """``linprog`` returns what it makes of HiGHS model status ``name``."""
    status = LINPROG_STATUS.get(name, 4)

    def linprog(*_args, **_kwargs):
        return OptimizeResult(
            status=status, success=status == 0,
            message=f"(HiGHS Status stubbed: {STATUS_TEXT[name]})",
            x=np.array([2.0]), fun=2.0,
        )

    with pytest.MonkeyPatch.context() as patch, binding_hidden():
        patch.setattr(scipy.optimize, "linprog", linprog)
        yield


@contextlib.contextmanager
def binding_stubbed(name, col_value=None, row_value=None):
    """HiGHS reports model status ``name``, and optionally a solution."""
    core = highs_binding()
    status = getattr(core.HighsModelStatus, name)

    class Stubbed(core._Highs):
        def getModelStatus(self):
            return status

        def getSolution(self):
            solution = super().getSolution()
            if col_value is not None:
                solution.col_value = col_value
            if row_value is not None:
                solution.row_value = row_value
            return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_Highs", Stubbed)
        yield


def status_stubs(name):
    """A stub per HiGHS path this SciPy has, each ending in status ``name``."""
    paths = [linprog_stubbed]
    if highs_binding() is not None:
        paths.append(binding_stubbed)
    return [functools.partial(path, name) for path in paths]


def stubbed_lp():
    lp = LinearProgram("stubbed")
    lp.add_variable("x", 0.0, None, objective=1.0)
    lp.add_constraint({"x": 1.0}, GREATER_EQUAL, 2.0)  # row -x <= -2
    return lp


class TestHighsFailures:
    """The verdict on each HiGHS model status, on every path."""

    def test_iteration_limit_is_a_solver_limit(self):
        for stubbed in status_stubs("kIterationLimit"):
            with stubbed(), pytest.raises(SolverLimit, match="Iteration limit reached"):
                stubbed_lp().solve()

    def test_time_limit_is_a_solver_limit(self):
        for stubbed in status_stubs("kTimeLimit"):
            with stubbed(), pytest.raises(SolverLimit, match="Time limit reached"):
                stubbed_lp().solve()

    def test_numerical_trouble_is_an_error_not_infeasibility(self):
        for stubbed in status_stubs("kSolveError"):
            with stubbed(), pytest.raises(LPError, match="Solve error") as info:
                stubbed_lp().solve()
            assert not isinstance(info.value, (InfeasibleLP, SolverLimit))

    @needs_binding
    def test_every_other_status_is_an_error(self):
        core = highs_binding()
        others = sorted(set(core.HighsModelStatus.__members__) - set(LINPROG_STATUS))
        assert "kUnboundedOrInfeasible" in others
        for name in others:
            message = core._Highs().modelStatusToString(
                getattr(core.HighsModelStatus, name)
            )
            with binding_stubbed(name), pytest.raises(LPError) as info:
                stubbed_lp().solve()
            assert not isinstance(info.value, (InfeasibleLP, SolverLimit))
            assert str(info.value).endswith(message), name

    @pytest.mark.parametrize(
        "status, error",
        [(("kInfeasible", "kModelError"), InfeasibleLP), (("kUnbounded",), UnboundedLP)],
        ids=["2-InfeasibleLP", "3-UnboundedLP"],  # linprog's statuses 2 and 3
    )
    def test_infeasible_and_unbounded_keep_their_verdicts(self, status, error):
        for name in status:
            for stubbed in status_stubs(name):
                with stubbed(), pytest.raises(error):
                    stubbed_lp().solve()

    def test_success_returns_the_solution(self):
        for stubbed in status_stubs("kOptimal"):
            with stubbed():
                solution = stubbed_lp().solve()
            assert solution.is_optimal
            assert solution.objective == 2.0 and solution.values == {"x": 2.0}

    @needs_binding
    @pytest.mark.parametrize(
        "col_value, row_value",
        [
            ([-1e-3], None),  # below the lower bound 0
            ([2.0], [-2.0 + 1e-3]),  # the row -x <= -2 missed
            ([float("nan")], None),
            ([2.0], [float("nan")]),
        ],
        ids=["bound", "row", "nan-x", "nan-row"],
    )
    def test_an_optimal_x_outside_the_tolerance_is_an_error(self, col_value, row_value):
        with binding_stubbed("kOptimal", col_value, row_value):
            with pytest.raises(LPError, match="misses the bounds or rows") as info:
                stubbed_lp().solve()
        assert not isinstance(info.value, (InfeasibleLP, SolverLimit))

    @needs_binding
    def test_an_optimal_x_inside_the_tolerance_is_returned(self):
        # linprog's tolerance is 10 * sqrt(1e-9), about 3.2e-4.
        with binding_stubbed("kOptimal", [-3e-4], [-2.0 + 3e-4]):
            assert stubbed_lp().solve().values == {"x": -3e-4}


class TestLinprogFallback:
    """Without the binding, ``linprog`` solves the same models."""

    @needs_binding
    def test_solutions_equal_the_binding(self, monkeypatch):
        graph = gnp_random_digraph(30, 0.2, seed=3, cost_range=(1.0, 10.0))
        solutions = {"hidden": [], "loaded": []}

        def solve(key):
            def run(lp):
                solutions[key].append(solve_with_scipy(lp))
                return solutions[key][-1]
            return run

        with binding_hidden():
            ft2_rounds(monkeypatch, graph, 2, solve("hidden"))
        ft2_rounds(monkeypatch, graph, 2, solve("loaded"))
        assert len(solutions["hidden"]) == len(solutions["loaded"]) >= 2
        for got, want in zip(solutions["hidden"], solutions["loaded"]):
            assert_same_solution(got, want)

    @needs_binding
    def test_a_binding_missing_a_name_counts_as_none(self, monkeypatch):
        """A SciPy whose private binding moved a name solves through linprog."""
        # linprog bound its own reference to this one when it was imported.
        monkeypatch.delattr(highs_binding(), "simplex_constants")
        assert highs_binding() is None
        calls = []
        real = scipy.optimize.linprog

        def linprog(*args, **kwargs):
            calls.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        assert stubbed_lp().solve().values == {"x": 2.0}
        assert calls == ["highs"]


@st.composite
def random_feasible_lp(draw):
    """A random LP, feasible by construction around a known point.

    Every column has a finite upper bound, so the optimum is finite.
    """
    num_vars = draw(st.integers(2, 5))
    num_cons = draw(st.integers(1, 5))
    coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    lp = LinearProgram("random")
    point = {}
    for i in range(num_vars):
        lp.add_variable(i, 0.0, draw(st.sampled_from([3.0, 5.0])), draw(coeff))
        point[i] = draw(st.floats(0.0, 1.0))
    for _ in range(num_cons):
        coeffs = {i: draw(coeff) for i in range(num_vars) if draw(st.booleans())}
        coeffs = coeffs or {0: 1.0}
        lhs = sum(c * point[i] for i, c in coeffs.items())
        sense = draw(st.sampled_from([LESS_EQUAL, GREATER_EQUAL]))
        lp.add_constraint(coeffs, sense, lhs + 0.5 if sense == LESS_EQUAL else lhs - 0.5)
    return lp


def assert_optimum_matches_ipm(lp, solution):
    """``solution`` is feasible for ``lp``, and its objective is the
    optimum HiGHS's interior-point method finds on the model rebuilt
    from ``lp.constraints``."""
    reference = scipy.optimize.linprog(**reference_inputs(lp), method="highs-ipm")
    assert reference.status == 0, reference.message
    assert solution.objective == pytest.approx(reference.fun, rel=1e-6, abs=1e-9)
    assert lp.check_feasible(solution.values, tol=1e-6)


class TestIndependentOptimum:
    """The optimum ``solve()`` returns, against an independent solve."""

    @settings(max_examples=100, deadline=None)
    @given(lp=random_feasible_lp())
    def test_random_feasible_lps(self, lp):
        assert_optimum_matches_ipm(lp, lp.solve())

    def test_final_lp4_of_an_ft2_instance(self):
        result = solve_ft2_lp(gnp_random_digraph(7, 0.6, seed=1), 1)
        assert result.objective == pytest.approx(17.5)
        assert_optimum_matches_ipm(result.model.lp, result.solution)

    def test_lp2_on_a_complete_digraph(self):
        old = solve_old_lp(complete_digraph(5), 1)
        assert old.objective == pytest.approx(20 / 3)
        assert_optimum_matches_ipm(old.lp, old.solution)


_SUPERVISOR_IMPORTS = """
import sys

import repro.sched.worker as worker
from repro import run_sweep
from repro.graph import gnp_random_digraph, gnp_random_graph
from repro.sweep import emit_grid_plan

algorithm, method = sys.argv[1:]
if method == "spawn":
    worker._start_method = lambda: "spawn"
if algorithm == "ft2-approx":
    hosts = {"g": gnp_random_digraph(12, 0.3, seed=1, cost_range=(1.0, 3.0))}
    plan = emit_grid_plan([algorithm], [2], [1], hosts=hosts, seeds=2)
else:
    hosts = {"g": gnp_random_graph(12, 0.4, seed=1)}
    plan = emit_grid_plan([algorithm], [3], [1], hosts=hosts, seeds=2)
assert "scipy.optimize" not in sys.modules
run_sweep(plan, workers=2)
print("scipy.optimize" in sys.modules, worker._start_method())
"""


@pytest.mark.parametrize(
    "algorithm, method",
    [("ft2-approx", "auto"), ("theorem21", "auto"), ("ft2-approx", "spawn")],
)
def test_supervisor_imports_the_binding_only_for_forked_lp_plans(algorithm, method):
    """Forked children of an LP plan inherit the binding; a plan that
    solves no LP, or whose children are spawned, imports nothing new."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUPERVISOR_IMPORTS, algorithm, method],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    primed, used = proc.stdout.split()
    assert primed == str(algorithm == "ft2-approx" and used == "fork")
    if method == "auto" and sys.platform == "linux":
        assert used == "fork"  # the priming import leaves no thread behind
