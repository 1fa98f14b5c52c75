"""A combinatorial greedy baseline for Minimum Cost r-FT 2-Spanner.

The non-fault-tolerant 2-spanner problem has classical O(log n) *purely
combinatorial* approximations (Kortsarz–Peleg [KP94], Elkin–Peleg [EP01] —
both cited in the paper's introduction). This module provides a
density-greedy baseline in that spirit, generalized to the fault-tolerant
demand structure of Lemma 3.1: every host edge carries ``r + 1`` units of
demand, cleared either by buying the edge itself (clears all of them) or
one unit per bought length-2 path.

The greedy repeatedly takes the move with the best
(demand cleared) / (cost added) ratio among:

* **buy-edge(u, v)** — clears edge (u, v)'s remaining demand outright;
* **buy-path(u, z, v)** — buys whichever of the arcs (u, z), (z, v) are
  missing; clears one unit of (u, v)'s demand *plus* all knock-on demand:
  the bought arcs are host edges themselves (their demand clears), and
  they may complete length-2 paths for other pairs.

This is a heuristic baseline, not one of the paper's contributions: the
library uses it as an independent sanity bound for the LP-based algorithms
(tests assert the LP rounding is in the same cost ballpark) and as a
practical alternative when no LP solver is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..errors import FaultToleranceError
from ..graph.graph import BaseGraph
from .paths2 import all_two_paths, canonical_edge_map

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


@dataclass
class GreedyFT2Result:
    """Greedy output with iteration accounting."""

    spanner: BaseGraph
    moves: int

    @property
    def cost(self) -> float:
        return self.spanner.total_weight()

    @property
    def num_edges(self) -> int:
        return self.spanner.num_edges


class _GreedyState:
    """Demand bookkeeping for the density greedy."""

    def __init__(self, graph: BaseGraph, r: int):
        self.graph = graph
        self.r = r
        self.canon = canonical_edge_map(graph)
        self.midpoints = all_two_paths(graph)
        self.costs: Dict[EdgeKey, float] = {
            (u, v): w for u, v, w in graph.edges()
        }
        self.bought: Set[EdgeKey] = set()
        # demand[(u, v)]: units still required for host edge (u, v).
        self.demand: Dict[EdgeKey, int] = {
            key: r + 1 for key in self.midpoints
        }
        # paths_done[(u, v)]: midpoints already counted for (u, v).
        self.paths_done: Dict[EdgeKey, Set[Vertex]] = {
            key: set() for key in self.midpoints
        }
        # reverse index: arc -> list of (host_edge, midpoint) it appears in.
        self.arc_uses: Dict[EdgeKey, List[Tuple[EdgeKey, Vertex]]] = {
            key: [] for key in self.midpoints
        }
        for (u, v), mids in self.midpoints.items():
            for z in mids:
                self.arc_uses[self.canon[(u, z)]].append(((u, v), z))
                self.arc_uses[self.canon[(z, v)]].append(((u, v), z))

    def satisfied(self) -> bool:
        return all(d <= 0 for d in self.demand.values())

    def _register_purchase(self, key: EdgeKey) -> int:
        """Mark an arc bought; return total demand units cleared."""
        if key in self.bought:
            return 0
        self.bought.add(key)
        cleared = max(0, self.demand.get(key, 0))
        if key in self.demand:
            self.demand[key] = 0
        # knock-on: newly completed two-paths
        for host, z in self.arc_uses[key]:
            if self.demand.get(host, 0) <= 0:
                continue
            if z in self.paths_done[host]:
                continue
            u, v = host
            if (
                self.canon[(u, z)] in self.bought
                and self.canon[(z, v)] in self.bought
            ):
                self.paths_done[host].add(z)
                self.demand[host] -= 1
                cleared += 1
        return cleared

    def _gain_of_purchase(self, keys: List[EdgeKey]) -> Tuple[int, float]:
        """(demand cleared, cost) of buying ``keys``, without committing."""
        new = [k for k in keys if k not in self.bought]
        if not new:
            return 0, 0.0
        cost = sum(self.costs[k] for k in new)
        # simulate
        cleared = 0
        hypothetical = self.bought | set(new)
        counted: Set[Tuple[EdgeKey, Vertex]] = set()
        for k in new:
            if self.demand.get(k, 0) > 0:
                cleared += self.demand[k]
        # avoid double counting direct clears of the same edge
        direct = {k for k in new if self.demand.get(k, 0) > 0}
        cleared = sum(self.demand[k] for k in direct)
        for k in new:
            for host, z in self.arc_uses[k]:
                if host in direct:
                    continue
                if self.demand.get(host, 0) <= 0:
                    continue
                if z in self.paths_done[host] or (host, z) in counted:
                    continue
                u, v = host
                if (
                    self.canon[(u, z)] in hypothetical
                    and self.canon[(z, v)] in hypothetical
                ):
                    counted.add((host, z))
                    cleared += 1
        # cap per-host clearing at remaining demand
        per_host: Dict[EdgeKey, int] = {}
        for host, _z in counted:
            per_host[host] = per_host.get(host, 0) + 1
        excess = sum(
            max(0, count - self.demand[host]) for host, count in per_host.items()
        )
        return cleared - excess, cost


def greedy_ft2_spanner(graph: BaseGraph, r: int) -> GreedyFT2Result:
    """Density-greedy r-fault-tolerant 2-spanner (combinatorial baseline).

    Always terminates with a Lemma 3.1-valid subgraph: buying a host edge
    clears its demand outright, so progress is always possible. Intended
    for small and medium instances (each iteration re-scores all candidate
    moves).
    """
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    state = _GreedyState(graph, r)
    moves = 0
    while not state.satisfied():
        best_ratio = -1.0
        best_keys: Optional[List[EdgeKey]] = None
        for (u, v), mids in state.midpoints.items():
            if state.demand[(u, v)] <= 0:
                continue
            # move A: buy the edge itself
            gain, cost = state._gain_of_purchase([(u, v)])
            if gain > 0:
                ratio = gain / cost if cost > 0 else float("inf")
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_keys = [(u, v)]
            # move B: buy a completing two-path
            for z in mids:
                if z in state.paths_done[(u, v)]:
                    continue
                keys = [state.canon[(u, z)], state.canon[(z, v)]]
                gain, cost = state._gain_of_purchase(keys)
                if gain <= 0:
                    continue
                ratio = gain / cost if cost > 0 else float("inf")
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_keys = keys
        if best_keys is None:  # pragma: no cover - buy-edge always available
            raise FaultToleranceError("greedy could not make progress")
        for key in best_keys:
            state._register_purchase(key)
        moves += 1
    return GreedyFT2Result(
        spanner=graph.edge_subgraph(state.bought), moves=moves
    )
