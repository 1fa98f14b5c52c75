"""Linear-programming substrate.

A modelling layer (:mod:`repro.lp.model`), solved with HiGHS through
SciPy (:mod:`repro.lp.scipy_backend`), and a cutting-plane driver for
the exponentially-large constraint families of Section 3 (the
knapsack-cover inequalities of LP (4)).
"""

from .cutting_plane import CuttingPlaneResult, SeparationOracle, solve_with_cuts
from .model import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    Constraint,
    LinearProgram,
    LPSolution,
    Variable,
)
from .scipy_backend import solve_with_scipy

__all__ = [
    "Constraint",
    "CuttingPlaneResult",
    "EQUAL",
    "GREATER_EQUAL",
    "LESS_EQUAL",
    "LPSolution",
    "LinearProgram",
    "SeparationOracle",
    "Variable",
    "solve_with_cuts",
    "solve_with_scipy",
]
