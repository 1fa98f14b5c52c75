"""Edge-fault-tolerant spanners — the conversion's other natural setting.

The paper focuses on *vertex* faults (the harder model), but the same
oversampling conversion handles *edge* faults verbatim — indeed the
distributed statement (Theorem 2.3) is phrased with "each edge
independently decides whether or not to join J". This module holds the
edge-fault entry points; each is a shell over the code both fault kinds
share:

* :func:`edge_fault_tolerant_spanner` — Theorem 2.1 with edge
  oversampling: each iteration removes every edge independently with
  probability ``1 - 1/r``, spans the survivor, and unions the results.
  The analysis carries over: for a real edge-fault set ``F`` (|F| <= r)
  and a surviving edge that is a shortest path in ``G \\ F``, one
  iteration covers the pair when the edge survives and ``F`` is sampled
  out — probability ``(1/r)(1 - 1/r)^r >= 1/(2er)`` — so
  ``Θ(r² log n)``-ish iterations suffice for a union bound over
  ``m^{r+1}`` pairs (we keep the same schedule knobs as the vertex case).
  It is :func:`repro.core.conversion._theorem21` with ``kind="edge"``.
* :func:`is_edge_fault_tolerant_spanner` and
  :func:`sampled_edge_fault_check` — exhaustive / Monte Carlo verifiers
  against the edge-fault definition: the driver of
  :mod:`repro.core.verify` with ``kind="edge"``.

For ``k = 2`` and unit lengths, :func:`repro.core.verify.is_ft_2spanner`
gives the exact edge-fault verdict too (the proof is in its docstring).

Specs reach this setting through the registry's one ``theorem21`` row
with ``faults=FaultModel.edge(r)``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..graph.graph import BaseGraph
from ..graph.scenario import FaultScenario
from ..rng import RandomLike
from ..spanners.greedy import greedy_spanner
from .conversion import BaseSpannerAlgorithm, ConversionResult, _theorem21
from .verify import _first_violation


def edge_fault_tolerant_spanner(
    graph: BaseGraph,
    k: float,
    r: int,
    base_algorithm: BaseSpannerAlgorithm = greedy_spanner,
    iterations: Optional[int] = None,
    schedule: str = "light",
    constant: float = 16.0,
    seed: RandomLike = None,
    method: str = "auto",
    scenarios: Optional[Sequence[FaultScenario]] = None,
) -> ConversionResult:
    """Theorem 2.1 conversion against *edge* faults.

    Mirrors :func:`repro.core.conversion.fault_tolerant_spanner`, but each
    iteration samples a set ``J`` of *edges* (every edge joins ``J``
    independently with probability ``1 - 1/r``) and spans ``G`` minus
    those edges. The default schedule is "light" (``r² log n``): the
    per-pair success probability here is ``(1/r)(1-1/r)^r``, one ``1/r``
    factor better than the vertex case's ``(1/r)²(1-1/r)^r``. ``method``
    is threaded through to the base algorithm (see
    :func:`repro.core.conversion.base_algorithm_caller`); with the
    default greedy base and any non-``"dict"`` method the whole loop
    runs on edge-masked :class:`repro.graph.csr.SurvivorView`\\ s of one
    host snapshot — no ``edge_subgraph`` is ever materialized.

    ``scenarios`` optionally supplies an explicit list of
    :class:`repro.graph.scenario.FaultScenario` values (kind ``"none"``
    or ``"edge"``) to replay instead of sampling: the iteration count
    becomes ``len(scenarios)`` and no randomness is consumed.
    """
    return _theorem21(
        graph, k, r, "edge", base_algorithm, method, seed,
        iterations=iterations, schedule=schedule, constant=constant,
        scenarios=scenarios,
    )


def is_edge_fault_tolerant_spanner(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    r: int,
    scenarios: Optional[Iterable] = None,
) -> bool:
    """Exhaustive r-edge-fault-tolerance verification.

    Enumerates every edge subset of size <= r unless ``scenarios`` gives
    explicit sets (:class:`repro.graph.scenario.FaultScenario` values of
    kind ``"none"``/``"edge"``, or raw edge-tuple iterables); callers
    must keep ``C(m, r)`` small.
    """
    return _first_violation(spanner, graph, k, r, "edge", scenarios=scenarios) is None


def sampled_edge_fault_check(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    r: int,
    trials: int = 100,
    seed: RandomLike = None,
) -> bool:
    """Monte Carlo r-edge-fault-tolerance check."""
    violation = _first_violation(
        spanner, graph, k, r, "edge", trials=trials, seed=seed
    )
    return violation is None

