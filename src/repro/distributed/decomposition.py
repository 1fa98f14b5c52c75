"""Padded decompositions (Lemma 3.7), centralized and distributed.

A padded decomposition is a random partition of the vertices into clusters
of (weak) diameter ``O(log n)`` such that each vertex's closed neighbourhood
lands in a single cluster with probability at least 1/2. Following the
paper's Lemma 3.7 (a distributed adaptation of Bartal's construction):

1. every vertex ``u`` draws a radius ``r_u`` from a geometric distribution
   with constant parameter ``p``, truncated at ``R = O(log n)``;
2. ``u`` announces its ID to every vertex within ``min(r_u, R)`` hops;
3. every vertex joins the smallest-ID announcer it heard.

A cluster may not contain its center, but ``diam(C ∪ {center})`` is at
most ``2R``. For the padding bound, note that if ``u`` is the smallest-ID
vertex whose ball reaches the closed neighbourhood ``B(v, 1)`` then the
memorylessness of the geometric distribution gives
``Pr[r_u >= d(u,v) + 1 | r_u >= d(u,v) - 1] = (1 - p)^2``, which is at
least 1/2 for ``p <= 1 - sqrt(1/2)``; with the default ``p = 0.2`` the
guarantee is ``(0.8)^2 = 0.64``, leaving margin for boundary effects.

Both implementations below sample from the *same* distribution: the
centralized one via truncated BFS per vertex, the distributed one via TTL
flooding in the LOCAL simulator (taking ``R`` rounds, i.e. O(log n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from ..distsim.node import NodeAlgorithm, NodeContext
from ..distsim.runtime import SimulationResult, communication_graph, run_algorithm
from ..errors import DistributedError
from ..graph.csr import resolve_method, snapshot
from ..graph.graph import BaseGraph, Graph
from ..graph.paths import bfs_distances
from ..rng import RandomLike, ensure_rng, geometric

Vertex = Hashable

#: Default geometric parameter; padding probability is (1 - p)^2 = 0.64 >= 1/2.
DEFAULT_P = 0.2


def default_radius_cap(n: int) -> int:
    """Truncation radius ``R = ceil(8 ln n)`` (exceeded w.p. n^{-Θ(1)})."""
    return max(2, math.ceil(8.0 * math.log(max(n, 2))))


@dataclass
class PaddedDecomposition:
    """A sampled partition with its radii, for verification and reuse."""

    assignment: Dict[Vertex, Vertex]  # vertex -> cluster center
    radii: Dict[Vertex, int]  # center -> sampled radius (capped)
    radius_cap: int

    @property
    def clusters(self) -> Dict[Vertex, Set[Vertex]]:
        """center -> member set (centers with empty clusters omitted)."""
        out: Dict[Vertex, Set[Vertex]] = {}
        for v, c in self.assignment.items():
            out.setdefault(c, set()).add(v)
        return out

    def cluster_of(self, v: Vertex) -> Vertex:
        """The center whose cluster contains ``v``."""
        return self.assignment[v]

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        return self.assignment[u] == self.assignment[v]

    def is_padded(self, graph: BaseGraph, v: Vertex) -> bool:
        """Whether ``N(v) ∪ {v}`` lies in a single cluster."""
        center = self.assignment[v]
        neighbors = (
            set(graph.successors(v)) | set(graph.predecessors(v))
            if graph.directed
            else set(graph.neighbors(v))
        )
        return all(self.assignment[u] == center for u in neighbors)

    def padded_fraction(self, graph: BaseGraph) -> float:
        """Fraction of vertices that are padded (Definition 3.6 item 2)."""
        vertices = list(graph.vertices())
        if not vertices:
            return 1.0
        padded = sum(1 for v in vertices if self.is_padded(graph, v))
        return padded / len(vertices)

    def max_weak_diameter(self, graph: BaseGraph) -> int:
        """Max over clusters of the hop diameter measured in the host graph.

        "Weak" because the connecting paths may leave the cluster
        (Definition 3.6 item 1 bounds exactly this quantity).
        """
        comm = communication_graph(graph)
        worst = 0
        for members in self.clusters.values():
            for v in members:
                dist = bfs_distances(comm, v)
                for u in members:
                    d = dist.get(u)
                    if d is None:
                        return -1  # disconnected pair: treat as failure
                    worst = max(worst, d)
        return worst


def _claim_balls_csr(graph: Graph, order, radii) -> Dict[Vertex, Vertex]:
    """Ball computation + claiming on the CSR kernels.

    Hop balls come from the compiled unit-weight limited SSSP, centers
    batched by radius. Ball membership is exact, so the claimed
    assignment matches the dict path vertex for vertex.
    """
    snap = snapshot(graph)
    index = snap.index
    verts = snap.verts
    n = snap.num_vertices
    order_idx = [index[v] for v in order]
    assignment_idx = [-1] * n
    kernels = snap.scipy_kernels()
    unit = np.ones(len(snap.nbr))
    radius_of = {index[v]: radii[v] for v in order}
    # Walk the claim order in fixed-size chunks (batching each chunk's
    # centers by radius for the compiled call) so peak memory stays
    # O(chunk · n) instead of one row per center.
    chunk_size = 64
    for lo in range(0, len(order_idx), chunk_size):
        chunk = order_idx[lo : lo + chunk_size]
        by_radius: Dict[int, List[int]] = {}
        for c in chunk:
            by_radius.setdefault(radius_of[c], []).append(c)
        members: Dict[int, List[int]] = {}
        for radius, centers in by_radius.items():
            rows = kernels.sssp_rows(centers, limit=float(radius), data=unit)
            for k, c in enumerate(centers):
                members[c] = np.nonzero(rows[k] <= radius)[0].tolist()
        for c in chunk:
            for v in members[c]:
                if assignment_idx[v] < 0:
                    assignment_idx[v] = c
    return {
        verts[v]: verts[c] for v, c in enumerate(assignment_idx) if c >= 0
    }


def sample_padded_decomposition(
    graph: Graph,
    p: float = DEFAULT_P,
    radius_cap: Optional[int] = None,
    seed: RandomLike = None,
    *,
    method: str = "auto",
) -> PaddedDecomposition:
    """Centralized sampler (truncated-BFS implementation of Lemma 3.7).

    Vertex IDs are compared by ``repr`` so arbitrary hashable vertex types
    get a consistent total order — matching the "smallest ID wins" rule of
    the distributed version. Radii are drawn in that same ID order on
    every path, and ball membership is exact hop distance, so
    ``method="csr"`` and ``method="dict"`` (see
    :func:`repro.graph.csr.resolve_method`) produce identical
    decompositions for a fixed seed.
    """
    if graph.directed:
        raise DistributedError("decompose the undirected communication graph")
    rng = ensure_rng(seed)
    n = graph.num_vertices
    cap = radius_cap if radius_cap is not None else default_radius_cap(n)
    order = sorted(graph.vertices(), key=repr)
    radii = {v: min(geometric(rng, p), cap) for v in order}
    resolved = resolve_method(method, n)
    if resolved == "csr" and n:
        assignment = _claim_balls_csr(graph, order, radii)
    else:
        assignment = {}
        # Smallest-ID announcer wins: iterate centers in ID order and
        # claim still-unassigned vertices within the radius.
        for center in order:
            reach = bfs_distances(graph, center, cutoff=radii[center])
            for v in reach:
                if v not in assignment:
                    assignment[v] = center
    return PaddedDecomposition(assignment=assignment, radii=radii, radius_cap=cap)


class PaddedDecompositionAlgorithm(NodeAlgorithm):
    """LOCAL-model implementation: TTL flooding of center announcements.

    Each announcement ``(center, ttl)`` is forwarded while its TTL permits;
    a node re-forwards a center only when it sees a strictly larger
    remaining TTL (so each center's announcement floods exactly its ball).
    After ``radius_cap`` rounds every node halts and selects the
    smallest-ID center it heard (every node hears itself: ``r_u >= 1``).
    """

    def __init__(self, p: float, radius_cap: int):
        self.p = p
        self.radius_cap = radius_cap

    def on_start(self, ctx: NodeContext) -> None:
        radius = min(geometric(ctx.rng, self.p), self.radius_cap)
        ctx.state["radius"] = radius
        ctx.state["heard"] = {ctx.node: radius}  # center -> best remaining ttl
        if radius >= 1:
            ctx.broadcast([(ctx.node, radius - 1)])

    def on_round(self, ctx: NodeContext, inbox) -> None:
        heard: Dict[Vertex, int] = ctx.state["heard"]
        forwards: List[Tuple[Vertex, int]] = []
        for _sender, announcements in inbox.items():
            for center, ttl in announcements:
                if center not in heard or ttl > heard[center]:
                    heard[center] = ttl
                    if ttl >= 1:
                        forwards.append((center, ttl - 1))
        if forwards:
            ctx.broadcast(forwards)
        if ctx.round >= self.radius_cap:
            chosen = min(heard, key=repr)
            ctx.halt(result=chosen)


def distributed_padded_decomposition(
    graph: Graph,
    p: float = DEFAULT_P,
    radius_cap: Optional[int] = None,
    seed: RandomLike = None,
) -> Tuple[PaddedDecomposition, SimulationResult]:
    """Run the Lemma 3.7 algorithm in the simulator.

    Returns the decomposition plus the simulation result (whose ``rounds``
    field realizes the O(log n) round bound).
    """
    cap = radius_cap if radius_cap is not None else default_radius_cap(
        graph.num_vertices
    )
    algorithm = PaddedDecompositionAlgorithm(p=p, radius_cap=cap)
    sim = run_algorithm(graph, lambda v: algorithm, seed=seed)
    assignment = dict(sim.results)
    radii = {v: sim.states[v]["radius"] for v in assignment}
    decomposition = PaddedDecomposition(
        assignment=assignment, radii=radii, radius_cap=cap
    )
    return decomposition, sim
