"""Seeded fault injection for the spanner service.

:class:`ChaosInjector` turns "the network just lost a rack" into a burst
of :mod:`repro.serve.workload` deletion operations, in two flavours:

* **random** — edges/nodes sampled uniformly from the live host;
* **adversarial** — deletions preferentially hit host edges that are
  *currently in the spanner* ("cut the backbone first"), the worst case
  for a maintained structure: every such deletion is guaranteed damage,
  where a random deletion often lands on an edge the spanner never kept.

All sampling is seeded and iterates the host/spanner graphs in their
deterministic insertion order — never a set — so a chaos campaign is
replayable byte-for-byte across processes and hash seeds.
"""

from __future__ import annotations

from typing import List, Optional

from ..graph.graph import BaseGraph
from ..rng import RandomLike, ensure_rng
from .workload import DEL_EDGE, DEL_NODE, Operation, _require_count


class ChaosInjector:
    """Generate seeded deletion bursts against a live host graph.

    Parameters
    ----------
    seed:
        RNG seed for target selection.
    adversarial:
        When true, edge bursts target spanner edges first and node bursts
        target the highest-spanner-degree vertices first.
    """

    def __init__(self, seed: RandomLike = None, adversarial: bool = False):
        self._rng = ensure_rng(seed)
        self.adversarial = adversarial

    def edge_burst(
        self,
        host: BaseGraph,
        count: int,
        spanner: Optional[BaseGraph] = None,
    ) -> List[Operation]:
        """``count`` ``DEL_EDGE`` operations against distinct live edges.

        In adversarial mode (``spanner`` given), spanner edges are
        sampled first; the remainder, if any, comes from the other host
        edges. Fewer than ``count`` ops are returned when the host runs
        out of edges; a negative ``count`` raises
        :class:`~repro.errors.InvalidSpec`.
        """
        _require_count("edge burst count", count)
        rng = self._rng
        edges = [(u, v) for u, v, _w in host.edges()]
        if self.adversarial and spanner is not None:
            primary = [e for e in edges if spanner.has_edge(*e)]
            rest = [e for e in edges if not spanner.has_edge(*e)]
            chosen = self._sample(primary, count, rng)
            if len(chosen) < count:
                chosen += self._sample(rest, count - len(chosen), rng)
        else:
            chosen = self._sample(edges, count, rng)
        return [Operation(DEL_EDGE, {"u": u, "v": v}) for u, v in chosen]

    def node_burst(
        self,
        host: BaseGraph,
        count: int,
        spanner: Optional[BaseGraph] = None,
    ) -> List[Operation]:
        """``count`` ``DEL_NODE`` operations against distinct live nodes.

        Adversarial mode kills the busiest spanner vertices (highest
        spanner degree, ties broken by host insertion order) — each one
        takes every two-path through it down with it. A negative
        ``count`` raises :class:`~repro.errors.InvalidSpec`.
        """
        _require_count("node burst count", count)
        rng = self._rng
        nodes = list(host.vertices())
        if self.adversarial and spanner is not None:
            degree = {
                v: (spanner.out_degree(v) if spanner.directed else spanner.degree(v))
                for v in nodes
                if spanner.has_vertex(v)
            }
            ranked = sorted(
                range(len(nodes)),
                key=lambda i: (-degree.get(nodes[i], 0), i),
            )
            chosen = [nodes[i] for i in ranked[:count]]
        else:
            chosen = self._sample(nodes, count, rng)
        return [Operation(DEL_NODE, {"v": v}) for v in chosen]

    @staticmethod
    def _sample(pool: list, count: int, rng) -> list:
        count = min(count, len(pool))
        if count <= 0:
            return []
        return rng.sample(pool, count)


__all__ = ["ChaosInjector"]
