"""Theorem 3.4 — O(log Δ) rounding via the Moser–Tardos algorithm.

For unit edge costs and maximum degree Δ, the paper shrinks Algorithm 1's
inflation to ``α = C log Δ`` and replaces the union bound with the Lovász
Local Lemma: the "bad" events are

* ``A_{u,v}`` — host edge ``(u, v)`` unsatisfied (not bought and fewer than
  ``r + 1`` length-2 paths bought), and
* ``B_u`` — the locally-charged cost around ``u`` exceeds
  ``4α(Σ_out x + Σ_in x)`` (these events replace the global Markov bound,
  which the conditional LLL distribution would invalidate).

Each event depends on O(Δ) threshold variables and conflicts with O(Δ³)
other events, so for a large enough ``C`` the symmetric LLL applies and
the Moser–Tardos resampling algorithm (implemented here in its vanilla
form: while some bad event occurs, resample that event's variables) finds
thresholds avoiding every event in expected polynomial time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import RoundingError
from ..graph.graph import BaseGraph
from ..rng import RandomLike, ensure_rng
from .paths2 import all_two_paths, canonical_edge_map
from .rounding import alpha_log_delta

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


@dataclass
class MoserTardosEvent:
    """A bad event: a predicate over a fixed set of threshold variables."""

    name: str
    scope: Tuple[Vertex, ...]

    def occurs(self, state: "_RoundingState") -> bool:  # pragma: no cover
        raise NotImplementedError


class _RoundingState:
    """Thresholds plus derived edge selections, kept consistent lazily."""

    def __init__(
        self,
        graph: BaseGraph,
        x_values: Dict[EdgeKey, float],
        alpha: float,
        rng,
    ) -> None:
        self.graph = graph
        self.alpha = alpha
        self.rng = rng
        # Normalize x lookups to both orientations (undirected graphs store
        # each edge under one arbitrary orientation).
        canon = canonical_edge_map(graph)
        self.x_values: Dict[EdgeKey, float] = dict(x_values)
        for key, canonical in canon.items():
            if key not in self.x_values and canonical in x_values:
                self.x_values[key] = x_values[canonical]
        self.thresholds: Dict[Vertex, float] = {
            v: rng.random() for v in graph.vertices()
        }

    def edge_selected(self, u: Vertex, v: Vertex) -> bool:
        x = self.x_values.get((u, v), 0.0)
        return min(self.thresholds[u], self.thresholds[v]) <= self.alpha * x

    def resample(self, scope: Sequence[Vertex]) -> None:
        for v in scope:
            self.thresholds[v] = self.rng.random()


class _EdgeEvent(MoserTardosEvent):
    """``A_{u,v}``: host edge unsatisfied under the current thresholds."""

    def __init__(self, u: Vertex, v: Vertex, midpoints: List[Vertex], r: int):
        scope = tuple(dict.fromkeys([u, v, *midpoints]))
        super().__init__(name=f"A:{u}->{v}", scope=scope)
        self.u = u
        self.v = v
        self.midpoints = midpoints
        self.r = r

    def occurs(self, state: _RoundingState) -> bool:
        if state.edge_selected(self.u, self.v):
            return False
        covered = 0
        for z in self.midpoints:
            if state.edge_selected(self.u, z) and state.edge_selected(z, self.v):
                covered += 1
                if covered > self.r:
                    return False
        return True


class _CostEvent(MoserTardosEvent):
    """``B_u``: charged cost around ``u`` above ``4α`` times its LP mass."""

    def __init__(
        self,
        u: Vertex,
        out_items: List[Tuple[Vertex, float]],
        in_items: List[Tuple[Vertex, float]],
        alpha: float,
    ):
        scope = tuple(dict.fromkeys([z for z, _x in out_items + in_items]))
        super().__init__(name=f"B:{u}", scope=scope)
        self.u = u
        self.out_items = out_items
        self.in_items = in_items
        lp_mass = sum(x for _z, x in out_items) + sum(x for _z, x in in_items)
        self.budget = 4.0 * alpha * lp_mass

    def occurs(self, state: _RoundingState) -> bool:
        alpha = state.alpha
        charged = sum(
            1
            for v, x in self.out_items
            if state.thresholds[v] <= alpha * x
        )
        charged += sum(
            1
            for v, x in self.in_items
            if state.thresholds[v] <= alpha * x
        )
        return charged > self.budget


@dataclass
class LLLResult:
    """Moser–Tardos output with resampling accounting."""

    spanner: BaseGraph
    resamples: int
    alpha: float

    @property
    def cost(self) -> float:
        return self.spanner.total_weight()

    @property
    def num_edges(self) -> int:
        return self.spanner.num_edges


def _build_events(
    graph: BaseGraph,
    x_values: Dict[EdgeKey, float],
    two_paths: Dict[EdgeKey, List[Vertex]],
    r: int,
    alpha: float,
    include_cost_events: bool,
) -> List[MoserTardosEvent]:
    events: List[MoserTardosEvent] = []
    for (u, v), mids in two_paths.items():
        events.append(_EdgeEvent(u, v, mids, r))
    if include_cost_events:
        for u in graph.vertices():
            if graph.directed:
                out_items = [
                    (v, x_values.get((u, v), 0.0)) for v in graph.successors(u)
                ]
                in_items = [
                    (v, x_values.get((v, u), 0.0)) for v in graph.predecessors(u)
                ]
            else:
                out_items = [
                    (v, x_values.get((u, v), x_values.get((v, u), 0.0)))
                    for v in graph.neighbors(u)
                ]
                in_items = []
            if out_items or in_items:
                events.append(_CostEvent(u, out_items, in_items, alpha))
    return events


def moser_tardos_rounding(
    graph: BaseGraph,
    x_values: Dict[EdgeKey, float],
    r: int,
    alpha: Optional[float] = None,
    alpha_constant: float = 4.0,
    include_cost_events: bool = True,
    max_resamples: Optional[int] = None,
    seed: RandomLike = None,
) -> LLLResult:
    """Round LP values with ``α = C log Δ`` and Moser–Tardos resampling.

    Parameters
    ----------
    graph:
        Host graph; Theorem 3.4 assumes unit costs and max degree Δ, but
        the resampler itself runs on any instance.
    x_values:
        LP (4) edge values.
    r:
        Fault-tolerance target (drives the ``A_{u,v}`` events).
    alpha:
        Inflation; defaults to ``alpha_constant · ln Δ``.
    include_cost_events:
        Whether to include the ``B_u`` cost-control events (the paper needs
        them for the cost bound; disabling them is an ablation that shows
        validity alone is easier).
    max_resamples:
        Cap on resampling steps; defaults to ``50 · (#events + 1)``.
        Exceeding it raises :class:`~repro.errors.RoundingError` — under
        the LLL condition this is vanishingly unlikely.
    """
    delta = graph.max_degree()
    if alpha is None:
        alpha = alpha_log_delta(max(delta, 2), alpha_constant)
    rng = ensure_rng(seed)
    state = _RoundingState(graph, x_values, alpha, rng)
    two_paths = all_two_paths(graph)
    events = _build_events(
        graph, x_values, two_paths, r, alpha, include_cost_events
    )
    if max_resamples is None:
        max_resamples = 50 * (len(events) + 1)

    resamples = 0
    while True:
        bad = next((e for e in events if e.occurs(state)), None)
        if bad is None:
            break
        if resamples >= max_resamples:
            raise RoundingError(
                f"Moser-Tardos exceeded {max_resamples} resamples "
                f"(alpha={alpha:.3f}); increase alpha_constant"
            )
        state.resample(bad.scope)
        resamples += 1

    chosen = [
        (u, v) for (u, v) in two_paths if state.edge_selected(u, v)
    ]
    return LLLResult(
        spanner=graph.edge_subgraph(chosen), resamples=resamples, alpha=alpha
    )
