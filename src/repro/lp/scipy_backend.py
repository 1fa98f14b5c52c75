"""HiGHS, the solver behind :meth:`~repro.lp.model.LinearProgram.solve`.

Each solve hands the model to SciPy's compiled HiGHS binding
(``scipy.optimize._highspy._core``, shipped since SciPy 1.15) with the
calls and the options that :func:`scipy.optimize.linprog` (method
``highs``) makes through it, so HiGHS solves the same model the same way
and returns the same solution, bit for bit, without linprog's Python
front end around a few milliseconds of solver time. The binding is
private to SciPy: the names used here were checked against SciPy 1.17,
and the requirements keep SciPy below 1.18. Where it does not import
(older SciPy), or lacks any name this module uses, the model goes
through ``linprog`` itself. :func:`highs_binding` is the one place that
decides.

HiGHS starts a task scheduler on its first solve and keeps its worker
threads for the life of the calling thread, with no pre-fork handler of
its own: a child forked while they live inherits a scheduler whose
workers do not exist there. Importing this module registers one
(``os.register_at_fork``) that stops those workers before every fork,
where scipy's HiGHS bindings expose the call; the next solve starts
them again.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from ..errors import LPError, SolverLimit
from .model import LinearProgram, LPSolution, solve_without_variables

#: linprog's check of an "optimal" x: bounds and rows may be missed by
#: at most ``10 * sqrt(tol)`` with its default ``tol`` of 1e-9.
_FEASIBILITY_TOL = 10 * math.sqrt(1e-9)


#: Every name :func:`solve_with_scipy` uses on the binding, by owner
#: (``""`` is the module itself).
_BINDING_NAMES = {
    "": "kHighsInf",
    "HighsLp": "num_col_ num_row_ a_matrix_ col_cost_ col_lower_ col_upper_ "
               "row_lower_ row_upper_",
    "HighsSparseMatrix": "num_col_ num_row_ format_ start_ index_ value_",
    "MatrixFormat": "kColwise",
    "HighsOptions": "presolve simplex_strategy highs_debug_level output_flag "
                    "log_to_console",
    "simplex_constants.SimplexStrategy": "kSimplexStrategyDual",
    "HighsDebugLevel": "kHighsDebugLevelNone",
    "_Highs": "passOptions passModel run getModelStatus modelStatusToString "
              "getInfo getSolution",
    "HighsInfo": "objective_function_value",
    "HighsSolution": "col_value row_value",
    "HighsStatus": "kError",
    "HighsModelStatus": "kOptimal kInfeasible kModelError kUnbounded "
                        "kTimeLimit kIterationLimit",
}


def highs_binding():
    """SciPy's compiled HiGHS binding, or ``None`` where SciPy has none.

    A binding that lacks any name in :data:`_BINDING_NAMES` counts as
    none, so a SciPy release that moves one solves through ``linprog``
    instead of failing. Importing it loads :mod:`scipy.optimize` (about
    0.2 s), which is why :func:`repro.sched.worker._supervise` calls
    this before it forks the shard children of a plan that solves LPs.
    """
    try:
        import scipy.optimize._highspy._core as core
    except ImportError:
        return None
    return core if _has_binding_names(core) else None


def _has_binding_names(core) -> bool:
    for owner, names in _BINDING_NAMES.items():
        scope = core
        for part in owner.split(".") if owner else ():
            scope = getattr(scope, part, None)
        if scope is None or not all(hasattr(scope, name) for name in names.split()):
            return False
    return True


def _stop_highs_workers() -> None:
    core = sys.modules.get("scipy.optimize._highspy._core")
    reset = getattr(getattr(core, "_Highs", None), "resetGlobalScheduler", None)
    if reset is not None:
        reset(True)  # blocking: the worker threads are joined


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_highs_workers)


def solve_with_scipy(lp: LinearProgram) -> LPSolution:
    """Solve a model with HiGHS, as ``linprog(method="highs")`` would.

    The rows are the ``<=`` block (``>=`` rows negated) and then the
    ``==`` block, copied from the sparse rows that
    :meth:`~repro.lp.model.LinearProgram.matrix_form` keeps, so a
    cutting-plane round does not re-walk the rows of earlier rounds.
    They reach HiGHS through :func:`highs_binding`, or through
    :func:`scipy.optimize.linprog` where the binding does not import.

    Raises :class:`~repro.errors.SolverLimit` when HiGHS stops at an
    iteration or time limit, and :class:`~repro.errors.LPError` quoting
    HiGHS's status on any other failure that is neither infeasibility
    nor unboundedness, or when an "optimal" solution misses its bounds
    or rows by more than linprog tolerates.
    """
    names = lp.variable_names()
    if not names:
        return solve_without_variables(lp)
    core = highs_binding()
    if core is None:
        return _solve_with_linprog(lp, names)
    c, bounds, ub, eq = lp.matrix_form()
    inf = core.kHighsInf
    lower = np.array([-inf if lo is None else lo for lo, _ in bounds])
    upper = np.array([inf if hi is None else hi for _, hi in bounds])
    b_ub = np.array(ub[3], dtype=float)
    b_eq = np.array(eq[3], dtype=float)
    num_col, num_ub = len(names), len(b_ub)
    num_row = num_ub + len(b_eq)

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = num_col
    model.num_row_ = model.a_matrix_.num_row_ = num_row
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.col_cost_ = np.array(c, dtype=float)
    model.col_lower_ = lower
    model.col_upper_ = upper
    model.row_lower_ = np.concatenate((np.full(num_ub, -inf), b_eq))
    model.row_upper_ = np.concatenate((b_ub, b_eq))
    start, index, value = _columns(ub, eq, num_col)
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value

    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = (
        core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    highs = core._Highs()
    highs.passOptions(options)
    statuses = core.HighsModelStatus
    if highs.passModel(model) == core.HighsStatus.kError:
        status = statuses.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()

    if status in (statuses.kInfeasible, statuses.kModelError):
        return LPSolution(status="infeasible", objective=math.inf)
    if status == statuses.kUnbounded:
        return LPSolution(status="unbounded", objective=-math.inf)
    if status != statuses.kOptimal:
        message = highs.modelStatusToString(status)
        if status in (statuses.kTimeLimit, statuses.kIterationLimit):
            raise SolverLimit(
                f"HiGHS stopped at a limit on LP {lp.name!r}: {message}"
            )
        raise LPError(f"HiGHS failed on LP {lp.name!r}: {message}")
    objective = highs.getInfo().objective_function_value
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    rows = np.array(solution.row_value)
    tol = _FEASIBILITY_TOL
    if not (
        not math.isnan(objective)
        and ((x >= lower - tol) & (x <= upper + tol)).all()
        and (b_ub - rows[:num_ub] >= -tol).all()
        and (np.abs(b_eq - rows[num_ub:]) <= tol).all()
    ):
        raise LPError(
            f"HiGHS failed on LP {lp.name!r}: its optimal solution misses "
            f"the bounds or rows by more than {tol:.2E}"
        )
    return LPSolution(
        status="optimal", objective=float(objective),
        values=dict(zip(names, x.tolist())),
    )


def _columns(ub: tuple, eq: tuple, num_col: int) -> tuple:
    """The ``<=`` rows, then the ``==`` rows, column-wise.

    Returns ``(start, index, value)`` in the order ``csc_array`` puts
    them when linprog converts its stacked rows: columns in order, and
    within a column the rows ascending.
    """
    lengths = np.concatenate((np.diff(ub[0]), np.diff(eq[0])))
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.concatenate((ub[1], eq[1]))
    data = np.concatenate((ub[2], eq[2]))
    order = np.argsort(cols, kind="stable")
    start = np.zeros(num_col + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=num_col), out=start[1:])
    return start, rows[order].astype(np.int32), data[order]


def _solve_with_linprog(lp: LinearProgram, names: list) -> LPSolution:
    """The same model through :func:`scipy.optimize.linprog`."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    c, bounds, ub, eq = lp.matrix_form()

    def block(indptr, indices, data, rhs):
        if not rhs:
            return None, None
        matrix = csr_matrix(
            (np.array(data, dtype=float), np.array(indices), np.array(indptr)),
            shape=(len(rhs), len(names)),
        )
        matrix.sort_indices()  # column order within a row, as HiGHS always got it
        return matrix, np.array(rhs, dtype=float)

    a_ub, b_ub = block(*ub)
    a_eq, b_eq = block(*eq)
    result = linprog(
        np.array(c, dtype=float), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=bounds, method="highs",
    )
    if result.status == 2:
        return LPSolution(status="infeasible", objective=math.inf)
    if result.status == 3:
        return LPSolution(status="unbounded", objective=-math.inf)
    if result.status == 1:
        raise SolverLimit(
            f"HiGHS stopped at a limit on LP {lp.name!r}: {result.message}"
        )
    if not result.success:
        raise LPError(
            f"HiGHS failed on LP {lp.name!r} (status {result.status}): "
            f"{result.message}"
        )
    values = dict(zip(names, result.x.tolist()))
    return LPSolution(status="optimal", objective=float(result.fun), values=values)
