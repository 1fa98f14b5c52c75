"""Cutting-plane driver with pluggable separation oracles.

The paper solves LP (4) — which has exponentially many knapsack-cover
constraints — with the Ellipsoid method plus the separation oracle of
Lemma 3.2. Offline and at benchmark scale, the standard practical
equivalent is *row generation*: solve a relaxed model, ask each oracle for
constraints violated by the current optimum, add them, and re-solve until
no oracle objects. The value sequence is nondecreasing: each round adds
rows to a minimization, each round's optimum is a lower bound on the
fully-constrained optimum, and the final round is feasible for every
oracle, hence optimal for the full LP whenever the oracles are exact
separators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from ..errors import SolverLimit
from .model import Constraint, LinearProgram, LPSolution

#: A separation oracle: given the current solution, return violated
#: constraints (empty when the solution is feasible for the oracle's family).
SeparationOracle = Callable[[LPSolution], List[Constraint]]


@dataclass
class CuttingPlaneResult:
    """Final solution plus row-generation accounting."""

    solution: LPSolution
    rounds: int
    cuts_added: int
    objective_trace: List[float] = field(default_factory=list)


def solve_with_cuts(
    lp: LinearProgram,
    oracles: Sequence[SeparationOracle],
    max_rounds: int = 200,
    max_cuts_per_round: int = 2000,
) -> CuttingPlaneResult:
    """Row-generation loop: solve, separate, add cuts, repeat.

    Parameters
    ----------
    lp:
        Model holding the always-present constraints; violated constraints
        returned by oracles are appended to it in place.
    oracles:
        Exact separation oracles for the implicit constraint families.
    max_rounds / max_cuts_per_round:
        Safety limits; exceeding ``max_rounds`` raises
        :class:`~repro.errors.SolverLimit` rather than silently returning
        an under-constrained optimum.
    """
    trace: List[float] = []
    total_cuts = 0
    for round_index in range(1, max_rounds + 1):
        solution = lp.solve()
        trace.append(solution.objective)
        violated: List[Constraint] = []
        for oracle in oracles:
            violated.extend(oracle(solution))
            if len(violated) >= max_cuts_per_round:
                violated = violated[:max_cuts_per_round]
                break
        if not violated:
            return CuttingPlaneResult(
                solution=solution,
                rounds=round_index,
                cuts_added=total_cuts,
                objective_trace=trace,
            )
        for cut in violated:
            lp.add_constraint(cut.coeffs, cut.sense, cut.rhs, name=cut.name)
        total_cuts += len(violated)
    raise SolverLimit(
        f"cutting-plane loop did not converge in {max_rounds} rounds "
        f"({total_cuts} cuts added)"
    )
