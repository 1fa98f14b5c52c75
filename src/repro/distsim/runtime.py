"""Synchronous LOCAL-model simulator.

Executes one :class:`~repro.distsim.node.NodeAlgorithm` instance per vertex
of a graph in lockstep rounds: all round-``t`` messages are delivered at the
start of round ``t + 1``. Communication is possible along every edge of the
communication graph; following the paper's Section 3.5 convention,
communication is bidirectional even when the problem graph is directed (the
caller passes the undirected communication graph).

The simulator charges one round per synchronous step and reports total
rounds and message count; the LOCAL model does not charge for local
computation or message size.

The simulator has one execution path, the dict-of-dict round loop
below; its outputs, traces and RNG streams are a pure function of the
graph, the node program and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable

from ..errors import DistributedError
from ..graph.graph import BaseGraph, Graph
from ..rng import RandomLike, derive_rng, ensure_rng
from .node import NodeAlgorithm, NodeContext

Vertex = Hashable

#: Factory producing one algorithm instance per vertex.
AlgorithmFactory = Callable[[Vertex], NodeAlgorithm]


def communication_graph(graph: BaseGraph) -> Graph:
    """The undirected communication topology of a problem graph.

    Section 3.5 convention: communication along an edge is bidirectional
    even when the problem graph is directed, so a directed instance
    communicates over its undirected collapse. Undirected graphs are
    returned *unchanged* (the same instance, no copy).
    """
    return graph.to_undirected() if graph.directed else graph


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    rounds: int
    messages_sent: int
    results: Dict[Vertex, Any] = field(default_factory=dict)
    states: Dict[Vertex, Dict[str, Any]] = field(default_factory=dict)


class Simulation:
    """Run a node algorithm over a communication graph."""

    def __init__(
        self,
        graph: BaseGraph,
        factory: AlgorithmFactory,
        seed: RandomLike = None,
        tracer=None,
    ) -> None:
        if graph.directed:
            raise DistributedError(
                "pass the undirected communication graph (see Section 3.5: "
                "communication along an edge is bidirectional)"
            )
        self.graph = graph
        self.factory = factory
        #: Optional :class:`~repro.distsim.trace.SimulationTracer`.
        self.tracer = tracer
        rng = ensure_rng(seed)
        self._contexts: Dict[Vertex, NodeContext] = {}
        self._algorithms: Dict[Vertex, NodeAlgorithm] = {}
        for i, v in enumerate(graph.vertices()):
            ctx = NodeContext(
                node=v,
                neighbors=tuple(graph.neighbors(v)),
                rng=derive_rng(rng, i),
            )
            self._contexts[v] = ctx
            self._algorithms[v] = factory(v)

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Execute rounds until every node halts (or ``max_rounds``)."""
        contexts = self._contexts
        algorithms = self._algorithms
        messages_sent = 0

        # Round 0: on_start.
        inboxes: Dict[Vertex, Dict[Vertex, Any]] = {v: {} for v in contexts}
        for v, ctx in contexts.items():
            algorithms[v].on_start(ctx)
        rounds = 0
        for v, ctx in contexts.items():
            outbox = ctx._drain_outbox()
            messages_sent += len(outbox)
            for receiver, content in outbox.items():
                inboxes[receiver][v] = content

        while any(not ctx.halted for ctx in contexts.values()):
            if rounds >= max_rounds:
                raise DistributedError(
                    f"simulation exceeded {max_rounds} rounds without halting"
                )
            rounds += 1
            previously_halted = {v: ctx.halted for v, ctx in contexts.items()}
            next_inboxes: Dict[Vertex, Dict[Vertex, Any]] = {v: {} for v in contexts}
            for v, ctx in contexts.items():
                if ctx.halted:
                    continue
                ctx.round = rounds
                algorithms[v].on_round(ctx, inboxes[v])
            for v, ctx in contexts.items():
                outbox = ctx._drain_outbox()
                messages_sent += len(outbox)
                for receiver, content in outbox.items():
                    next_inboxes[receiver][v] = content
            if self.tracer is not None:
                self.tracer.observe_round(
                    rounds,
                    inboxes,
                    {v: ctx.halted for v, ctx in contexts.items()},
                    previously_halted,
                )
            inboxes = next_inboxes

        return SimulationResult(
            rounds=rounds,
            messages_sent=messages_sent,
            results={v: ctx.result for v, ctx in contexts.items()},
            states={v: ctx.state for v, ctx in contexts.items()},
        )


def run_algorithm(
    graph: BaseGraph,
    factory: AlgorithmFactory,
    seed: RandomLike = None,
    max_rounds: int = 10_000,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulation`."""
    return Simulation(graph, factory, seed=seed).run(max_rounds=max_rounds)
