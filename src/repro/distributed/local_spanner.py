"""A distributed (2k-1)-spanner in the LOCAL model.

Corollary 2.4 needs a distributed base spanner running in O(k) rounds with
size ``O(k · n^{1+1/k})``-ish (the paper cites Derbel–Gavoille–Peleg–
Viennot; any local clustering spanner qualifies for the conversion). We
implement the Baswana–Sen clustering spanner distributedly — it is the
classical local construction and mirrors
:func:`repro.spanners.baswana_sen.baswana_sen_spanner` phase by phase.

One round per clustering phase suffices thanks to *shared randomness*: the
per-phase coin "is cluster c sampled?" is a public hash ``h(c, phase)``
every node can evaluate locally, so no communication is needed to learn a
neighbouring cluster's fate. Each round a node (1) applies neighbours'
decisions from the previous round (resolved edges, new cluster centers)
and (2) makes its own phase decision and announces it. Total rounds:
``k + 1`` for stretch ``2k - 1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..distsim.node import NodeAlgorithm, NodeContext
from ..distsim.runtime import SimulationResult, run_algorithm
from ..errors import DistributedError
from ..graph.graph import Graph
from ..rng import RandomLike, ensure_rng

Vertex = Hashable


def shared_coin(center: Vertex, phase: int, salt: int, p: float) -> bool:
    """Public coin: whether cluster ``center`` survives sampling in ``phase``.

    Implemented as a hash of ``(center, phase, salt)`` mapped to [0, 1).
    Every node evaluates the same value locally — the LOCAL-model idiom for
    shared randomness.
    """
    digest = hashlib.sha256(
        f"{salt}:{phase}:{center!r}".encode("utf-8")
    ).digest()
    value = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return value < p


@dataclass
class _Decision:
    """Per-round broadcast: my new center + edges I resolved/bought."""

    center: Optional[Vertex]
    resolved: Tuple[Vertex, ...]
    bought: Tuple[Vertex, ...]


class BaswanaSenNode(NodeAlgorithm):
    """Node program for the distributed Baswana–Sen spanner."""

    def __init__(self, k: int, p: float, salt: int, weights: Dict[Vertex, Dict[Vertex, float]]):
        self.k = k
        self.p = p
        self.salt = salt
        self.weights = weights  # node -> {neighbor: weight}, local views

    # -- helpers -----------------------------------------------------------

    def _lightest_per_cluster(
        self, ctx: NodeContext
    ) -> Dict[Vertex, Tuple[Vertex, float]]:
        """Lightest live incident edge into each *clustered* neighbour's cluster."""
        live: Set[Vertex] = ctx.state["live"]
        centers: Dict[Vertex, Optional[Vertex]] = ctx.state["neighbor_center"]
        my_weights = self.weights[ctx.node]
        best: Dict[Vertex, Tuple[Vertex, float]] = {}
        for u in live:
            c = centers.get(u)
            if c is None:
                continue
            w = my_weights[u]
            if c not in best or w < best[c][1]:
                best[c] = (u, w)
        return best

    def _resolve_cluster_edges(self, ctx: NodeContext, cluster: Vertex) -> List[Vertex]:
        """Drop all live edges into ``cluster``; return the dropped endpoints."""
        live: Set[Vertex] = ctx.state["live"]
        centers = ctx.state["neighbor_center"]
        dropped = [u for u in live if centers.get(u) == cluster]
        live.difference_update(dropped)
        return dropped

    def _buy(self, ctx: NodeContext, u: Vertex) -> None:
        ctx.state["bought"].add((ctx.node, u))

    # -- protocol ----------------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["center"] = ctx.node
        ctx.state["live"] = set(ctx.neighbors)
        ctx.state["bought"] = set()
        ctx.state["neighbor_center"] = {}
        ctx.broadcast(_Decision(center=ctx.node, resolved=(), bought=()))

    def _apply_inbox(self, ctx: NodeContext, inbox: Dict[Vertex, _Decision]) -> None:
        live: Set[Vertex] = ctx.state["live"]
        centers: Dict[Vertex, Optional[Vertex]] = ctx.state["neighbor_center"]
        for sender, decision in inbox.items():
            centers[sender] = decision.center
            if ctx.node in decision.resolved:
                live.discard(sender)

    def on_round(self, ctx: NodeContext, inbox: Dict[Vertex, _Decision]) -> None:
        self._apply_inbox(ctx, inbox)
        phase = ctx.round  # phases 1 .. k-1, final joining at round k
        if phase <= self.k - 1:
            self._clustering_phase(ctx, phase)
        else:
            self._final_phase(ctx)

    def _clustering_phase(self, ctx: NodeContext, phase: int) -> None:
        center = ctx.state["center"]
        resolved: List[Vertex] = []
        bought_now: List[Vertex] = []
        if center is not None and shared_coin(center, phase, self.salt, self.p):
            # My cluster survived sampling; nothing to do this phase.
            ctx.broadcast(_Decision(center=center, resolved=(), bought=()))
            return
        best = self._lightest_per_cluster(ctx)
        sampled = {
            c: e
            for c, e in best.items()
            if shared_coin(c, phase, self.salt, self.p)
        }
        if center is not None and sampled:
            join_center, (join_nbr, join_w) = min(
                sampled.items(), key=lambda item: (item[1][1], repr(item[0]))
            )
            self._buy(ctx, join_nbr)
            bought_now.append(join_nbr)
            ctx.state["center"] = join_center
            for c, (u, w) in best.items():
                if c == join_center:
                    continue
                if w < join_w:
                    self._buy(ctx, u)
                    bought_now.append(u)
                    resolved.extend(self._resolve_cluster_edges(ctx, c))
            resolved.extend(self._resolve_cluster_edges(ctx, join_center))
            ctx.broadcast(
                _Decision(
                    center=join_center,
                    resolved=tuple(resolved),
                    bought=tuple(bought_now),
                )
            )
        elif center is not None:
            # No sampled neighbouring cluster: buy one edge per cluster
            # and leave the clustering for good.
            for c, (u, w) in best.items():
                self._buy(ctx, u)
                bought_now.append(u)
                resolved.extend(self._resolve_cluster_edges(ctx, c))
            ctx.state["center"] = None
            ctx.broadcast(
                _Decision(center=None, resolved=tuple(resolved), bought=tuple(bought_now))
            )
        else:
            # Already unclustered; just keep echoing state.
            ctx.broadcast(_Decision(center=None, resolved=(), bought=()))

    def _final_phase(self, ctx: NodeContext) -> None:
        best = self._lightest_per_cluster(ctx)
        for _c, (u, _w) in best.items():
            self._buy(ctx, u)
        ctx.halt(result=ctx.state["bought"])


def distributed_baswana_sen(
    graph: Graph,
    k: int,
    seed: RandomLike = None,
    sample_probability: Optional[float] = None,
) -> Tuple[Graph, SimulationResult]:
    """Run the distributed Baswana–Sen (2k-1)-spanner.

    Returns the spanner (union of all nodes' bought edges) and the
    simulation result; ``result.rounds`` is ``k + 1`` — realizing the
    O(k)-round bound Corollary 2.4 needs from its base construction.
    """
    if graph.directed:
        raise DistributedError("the distributed spanner runs on undirected graphs")
    if k < 1:
        raise DistributedError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    spanner = Graph()
    spanner.add_vertices(graph.vertices())
    if n == 0 or graph.num_edges == 0:
        return spanner, SimulationResult(rounds=0, messages_sent=0)
    if k == 1:
        for u, v, w in graph.edges():
            spanner.add_edge(u, v, w)
        return spanner, SimulationResult(rounds=0, messages_sent=0)
    rng = ensure_rng(seed)
    salt = rng.getrandbits(63)
    p = sample_probability if sample_probability is not None else n ** (-1.0 / k)
    weights = {v: dict(graph.neighbor_items(v)) for v in graph.vertices()}
    node = BaswanaSenNode(k=k, p=p, salt=salt, weights=weights)
    sim = run_algorithm(graph, lambda v: node, seed=rng)
    for bought in sim.results.values():
        for (a, b) in bought:
            spanner.add_edge(a, b, graph.weight(a, b))
    return spanner, sim
