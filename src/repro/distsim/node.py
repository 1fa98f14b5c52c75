"""Per-node programming interface for the LOCAL-model simulator.

An algorithm is written as a subclass of :class:`NodeAlgorithm`; the
simulator instantiates one object per vertex. Each synchronous round the
node receives the messages sent to it in the previous round and may send
one message per incident edge (of unbounded size — this is the LOCAL
model [Pel00]). A node that calls :meth:`NodeContext.halt` stops
participating; the simulation ends when every node has halted.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Tuple

from ..errors import ProtocolViolation

Vertex = Hashable


class NodeContext:
    """Simulator-provided view a node algorithm sees each round."""

    def __init__(self, node: Vertex, neighbors: Tuple[Vertex, ...], rng: random.Random):
        self.node = node
        self.neighbors = neighbors
        self.rng = rng
        self.round = 0
        #: Free-form algorithm state; survives across rounds.
        self.state: Dict[str, Any] = {}
        self._neighbor_set = set(neighbors)
        self._outbox: Dict[Vertex, Any] = {}
        self._halted = False
        self._result: Any = None

    # -- sending ---------------------------------------------------------

    def send(self, neighbor: Vertex, content: Any) -> None:
        """Queue a message to ``neighbor`` for delivery next round.

        At most one message per neighbour per round (send again to
        overwrite would be ambiguous, so it raises instead).
        """
        if neighbor not in self._neighbor_set:
            raise ProtocolViolation(
                f"node {self.node!r} tried to message non-neighbor {neighbor!r}"
            )
        if neighbor in self._outbox:
            raise ProtocolViolation(
                f"node {self.node!r} sent twice to {neighbor!r} in one round"
            )
        self._outbox[neighbor] = content

    def broadcast(self, content: Any) -> None:
        """Send the same content to every neighbour."""
        for neighbor in self.neighbors:
            self.send(neighbor, content)

    # -- lifecycle --------------------------------------------------------

    def halt(self, result: Any = None) -> None:
        """Stop participating; ``result`` is reported by the simulation."""
        self._halted = True
        if result is not None:
            self._result = result

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def result(self) -> Any:
        return self._result

    # -- simulator internals ----------------------------------------------

    def _drain_outbox(self) -> Dict[Vertex, Any]:
        outbox = self._outbox
        self._outbox = {}
        return outbox


class NodeAlgorithm:
    """Base class for LOCAL-model node programs.

    Subclasses override :meth:`on_start` (round 0, no inbox) and
    :meth:`on_round` (every later round, with the inbox of messages sent in
    the previous round, as a ``{sender: content}`` dict).
    """

    def on_start(self, ctx: NodeContext) -> None:
        """Round 0 hook: initialize state, send first messages."""

    def on_round(self, ctx: NodeContext, inbox: Dict[Vertex, Any]) -> None:
        """Per-round hook; call ``ctx.halt()`` when done."""
        raise NotImplementedError
