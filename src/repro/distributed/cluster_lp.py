"""Algorithm 2 — distributed O(log n)-approximation (Theorem 3.9).

The only nonlocal step of the Section 3.3 algorithm is solving LP (4); the
rounding (Algorithm 1) is a purely local threshold test. Algorithm 2 makes
the LP local:

1. for ``t = O(log n)`` iterations, sample a padded decomposition
   (Lemma 3.7);
2. every cluster center gathers its cluster's local view ``G(C)``
   (the subgraph induced by ``C ∪ N(C)``) and solves ``LP(C)`` — LP (4) on
   ``G(C)`` with edges leaving ``E(C)`` re-costed to 0 — then scatters the
   solution back;
3. each edge averages its x value over the iterations in which both
   endpoints were co-clustered (scaled by 4/t, capped at 1);
4. Algorithm 1 rounds the averaged values locally.

Lemma 3.8 makes the per-iteration cluster LPs sum to at most LP*, and the
padding property makes the averaged solution feasible whp — together the
approximation is O(log n) in expectation (Theorem 3.9).

The implementation computes exactly what the message protocol computes and
*accounts* rounds explicitly: per iteration, O(log n) rounds for the
decomposition plus a gather/scatter of twice the cluster radius (+1 hop
for N(C)); plus one final round for the rounding exchange. The cluster-
center LP solve itself is local computation, free in the LOCAL model.
Edges whose endpoints were never co-clustered keep x = 0 and are handled
by the rounding driver's repair path (a low-probability event at the
default ``t``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..distsim.runtime import communication_graph
from ..errors import DistributedError
from ..graph.graph import BaseGraph, Graph
from ..lp.cutting_plane import solve_with_cuts
from ..registry import register_algorithm
from ..rng import RandomLike, derive_rng, ensure_rng
from ..two_spanner.lp_new import build_ft2_lp, knapsack_cover_oracle, x_var
from ..two_spanner.rounding import (
    RoundingResult,
    alpha_log_n,
    round_until_valid,
)
from .decomposition import (
    DEFAULT_P,
    default_radius_cap,
    sample_padded_decomposition,
)

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


def default_iteration_count(n: int, constant: float = 4.0) -> int:
    """Algorithm 2's ``t = O(log n)`` iteration count."""
    return max(2, math.ceil(constant * math.log(max(n, 2))))


@dataclass
class ClusterLPIteration:
    """Accounting for one iteration of the loop in Algorithm 2."""

    decomposition_rounds: int
    gather_scatter_rounds: int
    num_clusters: int
    lp_value_sum: float
    padded_fraction: float


@dataclass
class DistributedLPResult:
    """Averaged x values plus full round accounting (Theorem 3.9)."""

    x_values: Dict[EdgeKey, float]
    iterations: int
    total_rounds: int
    per_iteration: List[ClusterLPIteration] = field(default_factory=list)

    @property
    def lp_cost(self) -> float:
        """Σ c_e x̃_e — bounded by 4·LP* via Lemma 3.8 (in expectation)."""
        return self._lp_cost

    _lp_cost: float = 0.0


def _local_view(graph: BaseGraph, members: Set[Vertex], comm: Graph) -> Tuple[BaseGraph, Set[Vertex]]:
    """``G(C)``: subgraph induced by ``C ∪ N(C)``, plus the halo ``N(C)``."""
    halo: Set[Vertex] = set()
    for v in members:
        for u in comm.neighbors(v):
            if u not in members:
                halo.add(u)
    view = graph.induced_subgraph(members | halo)
    return view, halo


def _solve_cluster_lp(
    graph: BaseGraph,
    members: Set[Vertex],
    comm: Graph,
    r: int,
) -> Tuple[Dict[EdgeKey, float], float]:
    """Solve LP(C) and return x values for E(C) and the LP(C) objective.

    Edges of ``G(C)`` outside ``E(C)`` (crossing or halo-internal) are
    re-costed to 0, per the Lemma 3.8 construction; only x values of
    ``E(C)`` edges are reported back (those are the values Algorithm 2
    averages).
    """
    view, _halo = _local_view(graph, members, comm)
    if view.num_edges == 0:
        return {}, 0.0
    # Re-cost: internal edges keep their cost, everything else is free.
    recosted = type(view)()
    recosted.add_vertices(view.vertices())
    internal: Set[EdgeKey] = set()
    for u, v, w in view.edges():
        if u in members and v in members:
            recosted.add_edge(u, v, w)
            internal.add((u, v))
        else:
            recosted.add_edge(u, v, 0.0)
    model = build_ft2_lp(recosted, r)
    result = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])
    x_internal = {
        (u, v): result.solution.value(x_var(u, v)) for (u, v) in internal
    }
    return x_internal, result.solution.objective


def distributed_ft2_lp(
    graph: BaseGraph,
    r: int,
    t: Optional[int] = None,
    p: float = DEFAULT_P,
    seed: RandomLike = None,
    method: str = "auto",
) -> DistributedLPResult:
    """The LP-solving loop of Algorithm 2 (lines 1–5).

    Returns the averaged ``x̃`` values and the number of LOCAL rounds the
    message protocol would take: per iteration, ``radius_cap`` rounds of
    decomposition sampling plus ``2·(max cluster radius + 1)`` rounds of
    gather/scatter. ``method`` threads to the per-iteration Lemma 3.7
    sampler (seed-identical on every path).
    """
    if r < 0:
        raise DistributedError(f"r must be nonnegative, got {r}")
    comm = communication_graph(graph)
    n = comm.num_vertices
    iterations = t if t is not None else default_iteration_count(n)
    rng = ensure_rng(seed)
    cap = default_radius_cap(n)

    sums: Dict[EdgeKey, float] = {(u, v): 0.0 for u, v, _w in graph.edges()}
    hits: Dict[EdgeKey, int] = {key: 0 for key in sums}
    per_iteration: List[ClusterLPIteration] = []
    total_rounds = 0

    for i in range(iterations):
        decomposition = sample_padded_decomposition(
            comm, p=p, radius_cap=cap, seed=derive_rng(rng, i), method=method
        )
        clusters = decomposition.clusters
        max_radius = max(
            (decomposition.radii[c] for c in clusters), default=0
        )
        lp_sum = 0.0
        for center, members in clusters.items():
            x_internal, value = _solve_cluster_lp(graph, members, comm, r)
            lp_sum += value
            for key, x in x_internal.items():
                sums[key] += x
                hits[key] += 1
        gather_scatter = 2 * (max_radius + 1)
        total_rounds += cap + gather_scatter
        per_iteration.append(
            ClusterLPIteration(
                decomposition_rounds=cap,
                gather_scatter_rounds=gather_scatter,
                num_clusters=len(clusters),
                lp_value_sum=lp_sum,
                padded_fraction=decomposition.padded_fraction(comm),
            )
        )

    x_values = {
        key: min(1.0, 4.0 * total / iterations) for key, total in sums.items()
    }
    result = DistributedLPResult(
        x_values=x_values,
        iterations=iterations,
        total_rounds=total_rounds,
        per_iteration=per_iteration,
    )
    result._lp_cost = sum(
        graph.weight(u, v) * x for (u, v), x in x_values.items()
    )
    return result


@dataclass
class DistributedSpannerResult:
    """Full Algorithm 2 output: spanner, certificates, round count."""

    rounding: RoundingResult
    lp: DistributedLPResult
    total_rounds: int

    @property
    def spanner(self) -> BaseGraph:
        return self.rounding.spanner

    @property
    def cost(self) -> float:
        return self.rounding.cost


def distributed_ft2_spanner(
    graph: BaseGraph,
    r: int,
    t: Optional[int] = None,
    p: float = DEFAULT_P,
    seed: RandomLike = None,
    alpha_constant: float = 4.0,
    max_attempts: int = 20,
    method: str = "auto",
) -> DistributedSpannerResult:
    """Algorithm 2 end to end (Theorem 3.9).

    The final local rounding costs one extra communication round (each
    vertex tells neighbours which incident edges it bought).
    """
    rng = ensure_rng(seed)
    lp = distributed_ft2_lp(graph, r, t=t, p=p, seed=rng, method=method)
    alpha = alpha_log_n(graph.num_vertices, alpha_constant)
    rounding = round_until_valid(
        graph, lp.x_values, r, alpha, max_attempts=max_attempts, seed=rng
    )
    return DistributedSpannerResult(
        rounding=rounding, lp=lp, total_rounds=lp.total_rounds + 1
    )


@register_algorithm(
    "distributed-ft2",
    summary="Algorithm 2 / Theorem 3.9: distributed r-FT 2-spanner in LOCAL",
    stretch_domain="exactly 2 (unit lengths, per-edge costs)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    distributed=True,
    lp_path=True,
    stretch_kind="fixed",
    fixed_stretch=2,
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> distributed_ft2_spanner``."""
    from ..graph.csr import resolve_method
    from ..spec import require_fault_kind, require_lp_solver, require_stretch

    require_stretch(spec, 2)
    require_fault_kind(spec, "vertex", "none")
    require_lp_solver(spec)
    result = distributed_ft2_spanner(
        graph,
        spec.faults.r,
        t=spec.param("t"),
        p=spec.param("p", DEFAULT_P),
        seed=seed,
        alpha_constant=spec.param("alpha_constant", 4.0),
        max_attempts=spec.param("max_attempts", 20),
        method=spec.method,
    )
    stats = {
        "cost": result.cost,
        "total_rounds": result.total_rounds,
        "lp_iterations": result.lp.iterations,
        "lp_cost": result.lp.lp_cost,
        "rounding_attempts": result.rounding.attempts,
        # The Lemma 3.7 sampler dispatches on the communication graph,
        # which has the host's vertex set.
        "resolved_method": resolve_method(spec.method, graph.num_vertices),
    }
    return result, stats
