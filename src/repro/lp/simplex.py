"""A dense two-phase primal simplex solver in pure numpy.

This is the library's self-contained LP backend: no external solver is
required to reproduce the paper. It is deliberately simple — dense tableau,
Bland's rule for anti-cycling — and is cross-checked against scipy's HiGHS
in the test suite. Problem sizes in the reproduction (hundreds of variables
and constraints for the 2-spanner LPs on benchmark graphs) are comfortably
within its reach.

Standard form used internally::

    minimize    c^T x
    subject to  A x = b,  x >= 0,  b >= 0

:func:`solve_with_simplex` converts a general
:class:`~repro.lp.model.LinearProgram` (bounded variables, mixed senses)
into standard form: free/lower-bounded variables are shifted, upper bounds
become rows, inequality rows gain slack/surplus variables, and phase 1
drives artificial variables to zero.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import LPError, SolverLimit
from .model import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LPSolution,
    solve_without_variables,
)

_TOL = 1e-9
#: The dual tolerance, HiGHS's default dual feasibility tolerance. A
#: column with no positive pivot entry is an unbounded ray only when its
#: reduced cost is below ``-_DUAL_TOL``, in both phases. One just below
#: ``-_TOL`` (phase 1's entering threshold) typically owes it to a
#: coefficient at the tolerance scale (e.g. an LP coefficient of exactly
#: 1e-9): numerical noise, nothing to improve, not "unbounded".
_DUAL_TOL = 1e-7


class _Tableau:
    """Dense simplex tableau for ``min c^T x : Ax = b, x >= 0``."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, basis: List[int]):
        self.a = a.astype(float)
        self.b = b.astype(float)
        self.c = c.astype(float)
        self.basis = list(basis)

    def _pivot(self, row: int, col: int) -> None:
        pivot = self.a[row, col]
        self.a[row] /= pivot
        self.b[row] /= pivot
        for i in range(self.a.shape[0]):
            if i != row and abs(self.a[i, col]) > _TOL:
                factor = self.a[i, col]
                self.a[i] -= factor * self.a[row]
                self.b[i] -= factor * self.b[row]
        self.basis[row] = col

    def reduced_costs(self) -> np.ndarray:
        cb = self.c[self.basis]
        return self.c - cb @ self.a

    def run(
        self,
        max_iterations: int,
        entering_tol: float = _TOL,
        compiled: bool = False,
    ) -> str:
        """Run primal simplex (Bland's rule). Returns "optimal"/"unbounded".

        ``entering_tol`` is the dual-feasibility threshold: columns whose
        reduced cost is above ``-entering_tol`` are treated as
        non-improving. Phase 2 passes :data:`_DUAL_TOL` to match HiGHS's
        default dual tolerance — chasing descent directions whose rate is
        below what the cross-check backend considers optimal just walks
        the optimum a few ulps away from the reference answer.

        ``compiled=True`` runs the same loop in the C backend
        (:mod:`repro.compiled.simplex`): identical tolerances, entering
        scan, ratio-test tie-breaks and unbounded verdict, mutating the
        tableau in place exactly like this method — the two paths are
        pinned to the same pivot sequence by the property tests.
        """
        if compiled:
            from ..compiled.simplex import simplex_run

            status = simplex_run(
                self.a, self.b, self.c, self.basis,
                max_iterations, entering_tol, _TOL, _DUAL_TOL,
            )
            if status is None:
                raise SolverLimit(
                    f"simplex exceeded {max_iterations} iterations"
                )
            return status
        m, _n = self.a.shape
        for _ in range(max_iterations):
            reduced = self.reduced_costs()
            pivoted = False
            basic = set(self.basis)
            for entering in range(len(reduced)):
                if reduced[entering] >= -entering_tol:
                    continue  # Bland: try improving columns in index order
                if entering in basic:
                    # A basic column's reduced cost is exactly zero in
                    # exact arithmetic; a tiny negative here is float
                    # noise, and "re-entering" it pivots a variable onto
                    # its own row — a no-op that stalls forever.
                    continue
                # Ratio test, Bland tie-break on basis variable index.
                leaving = -1
                best_ratio = math.inf
                for i in range(m):
                    aij = self.a[i, entering]
                    if aij > _TOL:
                        ratio = self.b[i] / aij
                        if ratio < best_ratio - _TOL or (
                            abs(ratio - best_ratio) <= _TOL
                            and (leaving < 0 or self.basis[i] < self.basis[leaving])
                        ):
                            best_ratio = ratio
                            leaving = i
                if leaving >= 0:
                    self._pivot(leaving, entering)
                    pivoted = True
                    break
                # No positive pivot entry: the column is an unbounded ray
                # when its objective rate is past the dual tolerance,
                # the threshold HiGHS's dual feasibility check uses too.
                # A smaller rate (phase 1 enters from _TOL) is
                # tolerance-scale noise, not a ray: try the next column.
                if reduced[entering] < -_DUAL_TOL:
                    return "unbounded"
            if not pivoted:
                return "optimal"
        raise SolverLimit(f"simplex exceeded {max_iterations} iterations")

    def solution(self, num_original: int) -> np.ndarray:
        x = np.zeros(self.a.shape[1])
        for i, j in enumerate(self.basis):
            x[j] = self.b[i]
        return x[:num_original]

    def objective(self) -> float:
        return float(self.c[self.basis] @ self.b)


def _resolve_lp_method(method: str) -> bool:
    """Whether the pivot loop runs compiled, from the shared vocabulary.

    The tableau is already dense numpy whatever the tier, so for the LP
    backend ``"csr"`` and ``"dict"`` both mean the reference python
    loop; ``"auto"`` upgrades to the compiled loop when the optional C
    backend (:mod:`repro.compiled`) is available, and ``"compiled"``
    requires it (raising
    :class:`repro.errors.CompiledBackendUnavailable` otherwise).
    """
    if method in ("dict", "csr"):
        return False
    if method == "auto":
        from ..compiled import compiled_available

        return compiled_available()
    if method == "compiled":
        from ..compiled import require_compiled

        require_compiled()
        return True
    raise ValueError(
        f"method must be 'auto', 'csr', 'dict', or 'compiled', got {method!r}"
    )


def solve_standard_form(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    max_iterations: int = 50_000,
    method: str = "auto",
) -> Tuple[str, Optional[np.ndarray], float]:
    """Two-phase simplex for ``min c^T x : Ax = b, x >= 0``.

    Returns ``(status, x, objective)`` with status in
    {"optimal", "infeasible", "unbounded"}. ``method`` picks the pivot
    loop backend (see :func:`_resolve_lp_method`); every tier produces
    the same pivot sequence, bases and solution vector.
    """
    compiled = _resolve_lp_method(method)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float).copy()
    # Cost clean-up at the dual tolerance: an objective coefficient below
    # what the dual-feasibility check can resolve is indistinguishable
    # from zero at solver precision, but phase-1 pivoting can amplify it
    # into a spurious "unbounded" ray (or walk the optimum a tolerance
    # step away from what a reference solver reports). Solving the
    # cleaned problem is exactly what HiGHS's tolerances accept. The
    # threshold is absolute — a relative one would zero genuine small
    # coefficients in wide-cost-range objectives.
    if c.size:
        c[np.abs(c) <= _DUAL_TOL] = 0.0
    m, n = a.shape
    a = a.copy()
    # Matrix clean-up mirroring HiGHS's ``small_matrix_value`` presolve:
    # an entry at the pivot tolerance cannot ever be pivoted on, but it
    # *can* pass a ratio test after rescaling and bound a genuinely
    # unbounded direction at some astronomical-but-finite value, flipping
    # the verdict relative to the reference solver.
    a[np.abs(a) <= _TOL] = 0.0
    # Ensure b >= 0 by flipping rows.
    for i in range(m):
        if b[i] < 0:
            a[i] = -a[i]
            b[i] = -b[i]

    # Phase 1: add artificials, minimize their sum.
    art = np.eye(m)
    a1 = np.hstack([a, art])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    tableau = _Tableau(a1, b, c1, basis)
    status = tableau.run(max_iterations, compiled=compiled)
    if status != "optimal" or tableau.objective() > 1e-6:
        return "infeasible", None, math.inf

    # Drive any artificial variables remaining in the basis out of it.
    for i in range(m):
        if tableau.basis[i] >= n:
            for j in range(n):
                if abs(tableau.a[i, j]) > _TOL:
                    tableau._pivot(i, j)
                    break

    # Phase 2 on the original columns. A row whose basis variable is still
    # artificial could not be pivoted out: its coefficients on the original
    # columns are all ~0 and (phase-1 optimal) its rhs is ~0, so the row is
    # redundant and is dropped. Keeping such rows alive with big-M-cost
    # artificial columns — the previous scheme — poisons every reduced
    # cost with ~1e12-scale cancellation noise, which manifested as
    # spurious "unbounded" verdicts and Bland-rule cycling on degenerate
    # instances.
    keep_rows = [i for i in range(m) if tableau.basis[i] < n]
    a2 = tableau.a[np.ix_(keep_rows, list(range(n)))]
    b2 = tableau.b[keep_rows]
    basis2 = [tableau.basis[i] for i in keep_rows]
    tableau2 = _Tableau(a2, b2, c.copy(), basis2)
    status = tableau2.run(max_iterations, entering_tol=_DUAL_TOL, compiled=compiled)
    if status == "unbounded":
        return "unbounded", None, -math.inf
    x = tableau2.solution(n)
    return "optimal", x, float(c @ x)


def _to_standard_form(lp: LinearProgram):
    """Convert a general model into standard-form matrices.

    Returns ``(a, b, c, recover)`` where ``recover(x_std)`` maps the
    standard-form vector back to a {name: value} dict.
    """
    names = lp.variable_names()
    shifts: Dict[object, float] = {}
    col_of: Dict[object, int] = {}
    columns = 0
    # Shift every variable to x' = x - lower >= 0. Free variables (lower
    # = -inf) are split into positive and negative parts.
    split_vars = []
    for name in names:
        var = lp.variable(name)
        if math.isinf(var.lower):
            split_vars.append(name)
            col_of[name] = columns
            columns += 2
        else:
            shifts[name] = var.lower
            col_of[name] = columns
            columns += 1

    rows = []
    rhs = []
    senses = []

    def _coeff_row(coeffs: Dict[object, float]) -> Tuple[np.ndarray, float]:
        row = np.zeros(columns)
        shift_total = 0.0
        for vname, coeff in coeffs.items():
            j = col_of[vname]
            if vname in split_vars:
                row[j] = coeff
                row[j + 1] = -coeff
            else:
                row[j] = coeff
                shift_total += coeff * shifts[vname]
        return row, shift_total

    for con in lp.constraints:
        row, shift_total = _coeff_row(con.coeffs)
        rows.append(row)
        rhs.append(con.rhs - shift_total)
        senses.append(con.sense)

    # Upper bounds become <= rows on the shifted variable.
    for name in names:
        var = lp.variable(name)
        if var.upper is not None and not math.isinf(var.upper):
            row = np.zeros(columns)
            j = col_of[name]
            if name in split_vars:
                row[j] = 1.0
                row[j + 1] = -1.0
                bound = var.upper
            else:
                row[j] = 1.0
                bound = var.upper - shifts[name]
            rows.append(row)
            rhs.append(bound)
            senses.append(LESS_EQUAL)

    # Slack / surplus columns for inequality rows.
    num_ineq = sum(1 for s in senses if s != EQUAL)
    total_cols = columns + num_ineq
    a = np.zeros((len(rows), total_cols))
    b = np.array(rhs, dtype=float)
    slack_col = columns
    for i, (row, sense) in enumerate(zip(rows, senses)):
        a[i, :columns] = row
        if sense == LESS_EQUAL:
            a[i, slack_col] = 1.0
            slack_col += 1
        elif sense == GREATER_EQUAL:
            a[i, slack_col] = -1.0
            slack_col += 1

    c = np.zeros(total_cols)
    objective_shift = 0.0
    for name in names:
        var = lp.variable(name)
        j = col_of[name]
        if name in split_vars:
            c[j] = var.objective
            c[j + 1] = -var.objective
        else:
            c[j] = var.objective
            objective_shift += var.objective * shifts[name]

    def recover(x_std: np.ndarray) -> Dict[object, float]:
        values: Dict[object, float] = {}
        for name in names:
            j = col_of[name]
            if name in split_vars:
                values[name] = float(x_std[j] - x_std[j + 1])
            else:
                values[name] = float(x_std[j] + shifts[name])
        return values

    return a, b, c, recover, objective_shift


def solve_with_simplex(
    lp: LinearProgram, max_iterations: int = 50_000, method: str = "auto"
) -> LPSolution:
    """Solve a :class:`LinearProgram` with the two-phase simplex.

    ``method`` selects the pivot-loop backend exactly as in
    :func:`solve_standard_form`; the default ``"auto"`` rides the
    compiled loop when :mod:`repro.compiled` is available and the
    reference python loop otherwise, with identical output either way.
    """
    if lp.num_variables == 0:
        return solve_without_variables(lp)
    a, b, c, recover, shift = _to_standard_form(lp)
    if a.shape[0] == 0:
        # No constraints: optimum is each variable at its cheapest bound.
        values = {}
        total = 0.0
        for name in lp.variable_names():
            var = lp.variable(name)
            if var.objective >= 0:
                if math.isinf(var.lower):
                    return LPSolution(status="unbounded", objective=-math.inf)
                values[name] = var.lower
            else:
                if var.upper is None or math.isinf(var.upper):
                    return LPSolution(status="unbounded", objective=-math.inf)
                values[name] = var.upper
            total += var.objective * values[name]
        return LPSolution(status="optimal", objective=total, values=values)
    status, x, objective = solve_standard_form(a, b, c, max_iterations, method=method)
    if status != "optimal":
        return LPSolution(status=status, objective=math.inf)
    values = recover(x)
    return LPSolution(status="optimal", objective=objective + shift, values=values)
