"""Theorem 2.3 / Corollary 2.4 — distributed fault-tolerant spanners.

The conversion is "trivially distributed" (paper): the per-iteration fault
oversampling is an independent local coin at every vertex, and the base
spanner algorithm runs on the surviving subgraph. Running the distributed
Baswana–Sen spanner (k+1 rounds for stretch 2k-1) for
``α = Θ(r^3 log n)`` iterations gives an r-fault-tolerant spanner in
``O(r^3 log n · k)`` rounds — Corollary 2.4's shape.

We simulate each iteration honestly in the LOCAL runtime: survivors of the
iteration's sampling run the spanner protocol on the induced communication
subgraph (a node that sampled itself "faulty" stays silent, exactly as a
crashed node would), and the reported round count is the sum over
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional

from ..core.conversion import resolve_iterations, survival_probability
from ..errors import DistributedError
from ..graph.graph import Graph
from ..registry import register_algorithm
from ..rng import RandomLike, derive_rng, ensure_rng
from .local_spanner import distributed_baswana_sen

Vertex = Hashable


@dataclass
class DistributedFTResult:
    """Union spanner plus LOCAL-model accounting."""

    spanner: Graph
    iterations: int
    total_rounds: int
    total_messages: int
    survivor_sizes: List[int] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        return self.spanner.num_edges


def distributed_ft_spanner(
    graph: Graph,
    k: int,
    r: int,
    iterations: Optional[int] = None,
    schedule: str = "light",
    constant: float = 16.0,
    seed: RandomLike = None,
) -> DistributedFTResult:
    """Distributed r-fault-tolerant (2k-1)-spanner (Corollary 2.4).

    Parameters mirror :func:`repro.core.conversion.fault_tolerant_spanner`;
    ``k`` here is the Baswana–Sen level count (stretch ``2k - 1``). The
    default schedule is "light" (``r² log n``) because the simulator runs
    every round explicitly; pass ``schedule="theorem"`` for the full
    ``r³ log n`` of the statement.
    """
    if graph.directed:
        raise DistributedError("run on the undirected communication graph")
    if r < 0:
        raise DistributedError(f"r must be nonnegative, got {r}")
    n = graph.num_vertices
    rng = ensure_rng(seed)
    union = Graph()
    union.add_vertices(graph.vertices())

    if r == 0:
        spanner, sim = distributed_baswana_sen(graph, k, seed=rng)
        for u, v, w in spanner.edges():
            union.add_edge(u, v, w)
        return DistributedFTResult(
            spanner=union,
            iterations=1,
            total_rounds=sim.rounds,
            total_messages=sim.messages_sent,
            survivor_sizes=[n],
        )

    alpha = resolve_iterations(n, r, iterations, schedule, constant)
    p_survive = survival_probability(r)
    total_rounds = 0
    total_messages = 0
    survivor_sizes: List[int] = []
    vertices = list(graph.vertices())

    for i in range(alpha):
        it_rng = derive_rng(rng, i)
        survivors = [v for v in vertices if it_rng.random() < p_survive]
        survivor_sizes.append(len(survivors))
        sub = graph.induced_subgraph(survivors)
        spanner, sim = distributed_baswana_sen(sub, k, seed=it_rng)
        total_rounds += max(sim.rounds, 1)
        total_messages += sim.messages_sent
        for u, v, w in spanner.edges():
            union.add_edge(u, v, w)

    return DistributedFTResult(
        spanner=union,
        iterations=alpha,
        total_rounds=total_rounds,
        total_messages=total_messages,
        survivor_sizes=survivor_sizes,
    )


@register_algorithm(
    "distributed-ft",
    summary="Corollary 2.4 distributed r-FT (2t-1)-spanner (LOCAL simulator)",
    stretch_domain="odd integers 2t-1 (Baswana–Sen levels t)",
    weighted=True,
    directed=False,
    fault_tolerant=True,
    distributed=True,
    stretch_kind="odd",
)
def _registry_build(graph: Graph, spec, seed):
    """Spec adapter: ``SpannerSpec -> distributed_ft_spanner``."""
    from ..spec import require_fault_kind, stretch_to_levels

    require_fault_kind(spec, "vertex", "none")
    result = distributed_ft_spanner(
        graph,
        stretch_to_levels(spec, parameter="k"),
        spec.faults.r,
        iterations=spec.param("iterations"),
        schedule=spec.param("schedule", "light"),
        constant=spec.param("constant", 16.0),
        seed=seed,
    )
    stats = {
        "iterations": result.iterations,
        "total_rounds": result.total_rounds,
        "total_messages": result.total_messages,
        "survivor_sizes": list(result.survivor_sizes),
    }
    return result, stats
