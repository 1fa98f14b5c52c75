"""scipy (HiGHS) backend for :class:`~repro.lp.model.LinearProgram`.

The primary production backend. The pure-Python simplex exists as an
independent implementation; the test suite solves the same models with both
and compares optima.

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
from .model import LinearProgram, LPSolution


def _stop_highs_workers() -> None:
    core = sys.modules.get("scipy.optimize._highspy._core")
    reset = getattr(getattr(core, "_Highs", None), "resetGlobalScheduler", None)
    if reset is not None:
        reset(True)  # blocking: the worker threads are joined


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_highs_workers)


def solve_with_scipy(lp: LinearProgram) -> LPSolution:
    """Solve a model with :func:`scipy.optimize.linprog` (method ``highs``).

    The constraint matrices are sparse (the 2-spanner LPs have tens of
    thousands of rows with 2-3 nonzeros each) and are copied from
    :meth:`~repro.lp.model.LinearProgram.matrix_form`, so a
    cutting-plane round does not re-walk the rows of earlier rounds.

    Raises :class:`~repro.errors.SolverLimit` when HiGHS stops at an
    iteration or time limit, and :class:`~repro.errors.LPError` quoting
    HiGHS's message on any other failure that is neither infeasibility
    nor unboundedness.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    names = lp.variable_names()
    if not names:
        return LPSolution(status="optimal", objective=0.0, values={})
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
