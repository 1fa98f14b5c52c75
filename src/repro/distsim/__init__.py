"""A synchronous message-passing simulator for the LOCAL model [Pel00].

In each round every node may send an unbounded-size message to each of its
neighbours; after ``t`` rounds a node's state is a function of its
radius-``t`` neighbourhood. The distributed algorithms of Sections 2 and
3.5 run on this substrate, all on the one round loop in
:mod:`repro.distsim.runtime`.
"""

from .message import Message
from .node import NodeAlgorithm, NodeContext
from .runtime import (
    AlgorithmFactory,
    Simulation,
    SimulationResult,
    communication_graph,
    run_algorithm,
)
from .trace import RoundRecord, SimulationTracer

__all__ = [
    "AlgorithmFactory",
    "Message",
    "NodeAlgorithm",
    "NodeContext",
    "RoundRecord",
    "Simulation",
    "SimulationResult",
    "SimulationTracer",
    "communication_graph",
    "run_algorithm",
]
