"""A small linear-programming modelling layer.

The Section 3 relaxations (LP (2) and LP (4) in the paper) are built as
:class:`LinearProgram` instances: named variables with bounds and objective
coefficients, plus sparse constraints. Models are solved with HiGHS
(:mod:`repro.lp.scipy_backend`), and the cutting-plane driver
(:mod:`repro.lp.cutting_plane`) adds separation-oracle-generated
constraints incrementally — the offline stand-in for the paper's
Ellipsoid-with-separation-oracle argument (Lemma 3.2).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..errors import InfeasibleLP, LPError, UnboundedLP

VarName = Hashable

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

_SENSES = (LESS_EQUAL, GREATER_EQUAL, EQUAL)


@dataclass
class Variable:
    """A decision variable with bounds and an objective coefficient."""

    name: VarName
    index: int
    lower: float = 0.0
    upper: Optional[float] = None
    objective: float = 0.0


@dataclass
class Constraint:
    """A sparse linear constraint ``sum coeffs[v] * v  sense  rhs``."""

    coeffs: Dict[VarName, float]
    sense: str
    rhs: float
    name: Optional[str] = None

    def evaluate(self, values: Mapping[VarName, float]) -> float:
        """Left-hand-side value under a variable assignment."""
        return sum(c * values.get(v, 0.0) for v, c in self.coeffs.items())

    def satisfied(self, values: Mapping[VarName, float], tol: float = 1e-7) -> bool:
        """Whether the assignment satisfies the constraint within ``tol``."""
        lhs = self.evaluate(values)
        if self.sense == LESS_EQUAL:
            return lhs <= self.rhs + tol
        if self.sense == GREATER_EQUAL:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass
class LPSolution:
    """Solver output: status, optimal objective, and variable values."""

    status: str  # "optimal", "infeasible", or "unbounded"
    objective: float
    values: Dict[VarName, float] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, name: VarName) -> float:
        """Value of one variable (0.0 for variables absent from the model)."""
        return self.values.get(name, 0.0)


def solve_without_variables(lp: "LinearProgram") -> LPSolution:
    """The solution of a model that declares no variables.

    Its rows are constants, ``0 sense rhs``: the model is infeasible
    when one of them fails (within :meth:`Constraint.satisfied`'s
    tolerance), and otherwise optimal with objective 0.
    """
    if all(con.satisfied({}) for con in lp.constraints):
        return LPSolution(status="optimal", objective=0.0, values={})
    return LPSolution(status="infeasible", objective=math.inf)


class _Rows:
    """Append-only CSR rows: offsets, column indices, coefficients, rhs."""

    def __init__(self) -> None:
        self.indptr = array("q", [0])
        self.indices = array("q")
        self.data = array("d")
        self.rhs = array("d")

    def append(self, indices, data, rhs: float) -> None:
        self.indices.extend(indices)
        self.data.extend(data)
        self.indptr.append(len(self.indices))
        self.rhs.append(rhs)

    def pieces(self) -> tuple:
        return self.indptr, self.indices, self.data, self.rhs


class LinearProgram:
    """A minimization LP with named variables and sparse constraints."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: Dict[VarName, Variable] = {}
        self._order: List[VarName] = []
        self.constraints: List[Constraint] = []
        # Every constraint once more, as it is added, in matrix form:
        # ``<=`` and ``>=`` rows (the latter negated) and ``==`` rows.
        self._ub_rows = _Rows()
        self._eq_rows = _Rows()

    # ------------------------------------------------------------------
    # Model building
    # ------------------------------------------------------------------

    def add_variable(
        self,
        name: VarName,
        lower: float = 0.0,
        upper: Optional[float] = None,
        objective: float = 0.0,
    ) -> Variable:
        """Declare a variable; re-declaring an existing name is an error.

        The objective coefficient must be finite and the bounds must not
        be NaN (``None`` or an infinite bound means unbounded), so that
        HiGHS never sees such data.
        """
        if name in self._variables:
            raise LPError(f"variable {name!r} already declared")
        if not math.isfinite(objective):
            raise LPError(f"variable {name!r} has objective {objective!r}")
        if math.isnan(lower) or (upper is not None and math.isnan(upper)):
            raise LPError(f"variable {name!r} has a NaN bound [{lower}, {upper}]")
        if upper is not None and upper < lower:
            raise LPError(f"variable {name!r} has empty domain [{lower}, {upper}]")
        var = Variable(
            name=name,
            index=len(self._order),
            lower=lower,
            upper=upper,
            objective=objective,
        )
        self._variables[name] = var
        self._order.append(name)
        return var

    def variable(self, name: VarName) -> Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise LPError(f"unknown variable {name!r}") from None

    @property
    def num_variables(self) -> int:
        return len(self._order)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def variable_names(self) -> List[VarName]:
        return list(self._order)

    def add_constraint(
        self,
        coeffs: Mapping[VarName, float],
        sense: str,
        rhs: float,
        name: Optional[str] = None,
    ) -> Constraint:
        """Add a sparse constraint over previously declared variables.

        Coefficients and ``rhs`` must be finite.
        """
        if sense not in _SENSES:
            raise LPError(f"unknown sense {sense!r}; use one of {_SENSES}")
        if not math.isfinite(rhs):
            raise LPError(f"constraint {name!r} has right-hand side {rhs!r}")
        clean = {}
        for var, coeff in coeffs.items():
            if var not in self._variables:
                raise LPError(f"constraint references unknown variable {var!r}")
            if not math.isfinite(coeff):
                raise LPError(f"constraint {name!r} has coefficient {coeff!r} on {var!r}")
            if coeff != 0.0:
                clean[var] = float(coeff)
        constraint = Constraint(coeffs=clean, sense=sense, rhs=float(rhs), name=name)
        self.constraints.append(constraint)
        cols = [self._variables[var].index for var in clean]
        if sense == EQUAL:
            self._eq_rows.append(cols, clean.values(), constraint.rhs)
        else:
            sign = 1.0 if sense == LESS_EQUAL else -1.0
            self._ub_rows.append(
                cols, [sign * coeff for coeff in clean.values()], sign * constraint.rhs
            )
        return constraint

    def matrix_form(self) -> Tuple[list, list, tuple, tuple]:
        """The model as ``min c x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``.

        Returns ``(c, bounds, ub, eq)``: the objective coefficients and
        ``(lower, upper)`` bounds (``None`` where infinite) in declaration
        order, and each block as CSR pieces ``(indptr, indices, data,
        rhs)`` of :mod:`array` arrays, in the order the constraints were
        added. ``>=`` rows are negated into the ``<=`` block. The blocks
        are kept as constraints are added, so no call walks the rows;
        they are the model's own arrays and grow with it, so callers copy
        what they keep.
        """
        variables = [self._variables[name] for name in self._order]
        c = [var.objective for var in variables]
        bounds = [
            (
                None if math.isinf(var.lower) else var.lower,
                None if (var.upper is None or math.isinf(var.upper)) else var.upper,
            )
            for var in variables
        ]
        return c, bounds, self._ub_rows.pieces(), self._eq_rows.pieces()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def check_feasible(
        self, values: Mapping[VarName, float], tol: float = 1e-6
    ) -> bool:
        """Whether an assignment satisfies all bounds and constraints."""
        for name, var in self._variables.items():
            x = values.get(name, 0.0)
            if x < var.lower - tol:
                return False
            if var.upper is not None and x > var.upper + tol:
                return False
        return all(c.satisfied(values, tol) for c in self.constraints)

    def solve(self) -> LPSolution:
        """Solve the model with HiGHS.

        The solve goes through SciPy's compiled HiGHS binding, or
        :func:`scipy.optimize.linprog` where SciPy has none (see
        :mod:`repro.lp.scipy_backend`).

        Raises :class:`InfeasibleLP` / :class:`UnboundedLP` on those
        statuses so callers never silently consume a non-optimal solution.
        """
        from .scipy_backend import solve_with_scipy

        solution = solve_with_scipy(self)
        if solution.status == "infeasible":
            raise InfeasibleLP(f"LP {self.name!r} is infeasible")
        if solution.status == "unbounded":
            raise UnboundedLP(f"LP {self.name!r} is unbounded")
        return solution
