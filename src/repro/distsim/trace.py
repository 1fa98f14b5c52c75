"""Round-by-round tracing for the LOCAL-model simulator.

A :class:`SimulationTracer` attached to a :class:`~repro.distsim.runtime.
Simulation` records, per round, the messages delivered and which nodes
halted — enough to debug a distributed algorithm or to produce the round
accounting tables in the E9 benchmark without touching algorithm code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

Vertex = Hashable


@dataclass
class RoundRecord:
    """Everything observed in one synchronous round."""

    round_index: int
    messages_delivered: int
    active_nodes: int
    newly_halted: Tuple[Vertex, ...]
    #: Optional per-node message payload sizes (sender, receiver) pairs;
    #: populated only when the tracer is created with ``record_edges=True``.
    delivered_edges: Tuple[Tuple[Vertex, Vertex], ...] = ()


@dataclass
class SimulationTracer:
    """Collects :class:`RoundRecord` entries as the simulation runs."""

    record_edges: bool = False
    rounds: List[RoundRecord] = field(default_factory=list)

    def observe_round(
        self,
        round_index: int,
        inboxes: Dict[Vertex, Dict[Vertex, Any]],
        halted: Dict[Vertex, bool],
        previously_halted: Dict[Vertex, bool],
    ) -> None:
        """Called by the runtime after each round's processing."""
        delivered = sum(len(inbox) for inbox in inboxes.values())
        newly = tuple(
            v for v, is_halted in halted.items()
            if is_halted and not previously_halted.get(v, False)
        )
        edges: Tuple[Tuple[Vertex, Vertex], ...] = ()
        if self.record_edges:
            edges = tuple(
                (sender, receiver)
                for receiver, inbox in inboxes.items()
                for sender in inbox
            )
        self.rounds.append(
            RoundRecord(
                round_index=round_index,
                messages_delivered=delivered,
                active_nodes=sum(1 for h in halted.values() if not h),
                newly_halted=newly,
                delivered_edges=edges,
            )
        )

    # -- analysis helpers ---------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Messages delivered across all rounds."""
        return sum(record.messages_delivered for record in self.rounds)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def quiet_rounds(self) -> List[int]:
        """Rounds in which no message was delivered (often protocol waste)."""
        return [
            record.round_index
            for record in self.rounds
            if record.messages_delivered == 0
        ]

    def halting_round(self, node: Vertex) -> Optional[int]:
        """The round in which ``node`` halted, or None if it never did."""
        for record in self.rounds:
            if node in record.newly_halted:
                return record.round_index
        return None

    def message_histogram(self) -> Dict[int, int]:
        """Map round index -> messages delivered that round."""
        return {
            record.round_index: record.messages_delivered
            for record in self.rounds
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able trace document (vertices rendered via ``repr``).

        Vertex ``repr`` keeps arbitrary hashable vertex types
        serializable while staying deterministic, so two traces of the
        same seeded simulation — across processes or hash seeds —
        serialize to identical bytes. This is what the CI
        ``distsim-smoke`` step diffs.
        """
        return {
            "format": "repro-trace",
            "num_rounds": self.num_rounds,
            "total_messages": self.total_messages,
            "rounds": [
                {
                    "round": record.round_index,
                    "messages_delivered": record.messages_delivered,
                    "active_nodes": record.active_nodes,
                    "newly_halted": [repr(v) for v in record.newly_halted],
                    "delivered_edges": [
                        [repr(u), repr(v)] for u, v in record.delivered_edges
                    ],
                }
                for record in self.rounds
            ],
        }
