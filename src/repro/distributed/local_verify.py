"""Distributed verification of r-fault-tolerant 2-spanners.

Lemma 3.1 is *local*: whether host edge ``(u, v)`` is satisfied depends
only on the spanner's restriction to ``{u, v} ∪ (N+(u) ∩ N-(v))`` — a
radius-1 neighbourhood. So verification, like construction, runs in O(1)
LOCAL rounds:

* round 0 — every node broadcasts its incident spanner edges;
* round 1 — every node knows, for each incident host edge, the spanner
  adjacency of both endpoints; it counts bought two-path midpoints for
  the host edges it owns and halts with the list of violations.

Two rounds, messages of O(Δ) size. This gives the distributed pipeline a
self-check: after Algorithm 2's rounding, the network itself can certify
the output (or name the violated edges) without any central collection.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from ..distsim.node import NodeAlgorithm, NodeContext
from ..distsim.runtime import SimulationResult, communication_graph, run_algorithm
from ..errors import DistributedError
from ..graph.graph import BaseGraph
from ..rng import RandomLike

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


class LocalLemma31Verifier(NodeAlgorithm):
    """Node program: each node checks the host edges it is the tail of.

    ``host_out[v]`` lists v's outgoing host edges (or all incident edges,
    one orientation, for undirected hosts); ``spanner_adj[v]`` is v's
    spanner adjacency (out- and in-edges for digraphs).
    """

    def __init__(
        self,
        r: int,
        host_out: Dict[Vertex, List[Vertex]],
        spanner_out: Dict[Vertex, Set[Vertex]],
        spanner_in: Dict[Vertex, Set[Vertex]],
    ):
        self.r = r
        self.host_out = host_out
        self.spanner_out = spanner_out
        self.spanner_in = spanner_in

    def on_start(self, ctx: NodeContext) -> None:
        # Announce this node's spanner adjacency to all host neighbours.
        ctx.broadcast(
            {
                "out": tuple(self.spanner_out.get(ctx.node, ())),
                "in": tuple(self.spanner_in.get(ctx.node, ())),
            }
        )

    def on_round(self, ctx: NodeContext, inbox) -> None:
        violations: List[EdgeKey] = []
        my_out = self.spanner_out.get(ctx.node, set())
        for v in self.host_out.get(ctx.node, ()):  # host edge (me, v)
            if v in my_out:
                continue  # edge bought
            neighbour_report = inbox.get(v)
            if neighbour_report is None:
                violations.append((ctx.node, v))
                continue
            v_in = set(neighbour_report["in"])
            midpoints = {z for z in my_out if z in v_in and z not in (ctx.node, v)}
            if len(midpoints) < self.r + 1:
                violations.append((ctx.node, v))
        ctx.halt(result=tuple(violations))


def distributed_lemma31_check(
    spanner: BaseGraph,
    graph: BaseGraph,
    r: int,
    seed: RandomLike = None,
) -> Tuple[bool, List[EdgeKey], SimulationResult]:
    """Run the 2-round LOCAL verification.

    Returns ``(valid, violations, simulation_result)``. The communication
    topology is :func:`repro.distsim.communication_graph` of the host
    (Section 3.5's bidirectional-communication convention).
    """
    if r < 0:
        raise DistributedError(f"r must be nonnegative, got {r}")
    comm = communication_graph(graph)

    host_out: Dict[Vertex, List[Vertex]] = {}
    for u, v, _w in graph.edges():
        host_out.setdefault(u, []).append(v)
    spanner_out: Dict[Vertex, Set[Vertex]] = {}
    spanner_in: Dict[Vertex, Set[Vertex]] = {}
    for u, v, _w in spanner.edges():
        spanner_out.setdefault(u, set()).add(v)
        spanner_in.setdefault(v, set()).add(u)
        if not spanner.directed:
            spanner_out.setdefault(v, set()).add(u)
            spanner_in.setdefault(u, set()).add(v)

    verifier = LocalLemma31Verifier(r, host_out, spanner_out, spanner_in)
    sim = run_algorithm(comm, lambda v: verifier, seed=seed)
    violations: List[EdgeKey] = []
    for result in sim.results.values():
        violations.extend(result or ())
    return not violations, violations, sim
