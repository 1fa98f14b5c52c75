"""Seeded operation streams for the spanner service.

The operation vocabulary follows the WorkloadGenerator pattern of the
graph-database benchmark suites (see SNIPPETS.md snippet 3): a workload
is a flat list of ``{"type": ..., "params": {...}}`` records, generated
from a seed against a *mirror* of the live graph so that every emitted
mutation is applicable when replayed in order — a ``DEL_EDGE`` always
names an edge that exists at that point of the stream, an ``ADD_EDGE``
never duplicates one, and queries only touch live vertices.

Workloads round-trip through JSON (:func:`save_workload` /
:func:`load_workload`) so the CLI's ``repro serve`` can replay a trace
byte-identically across processes and ``PYTHONHASHSEED`` values: the
generator keeps its live-vertex and live-edge pools as lists (swap-remove
for O(1) deletion) and never iterates a set, so a seed fully determines
the stream.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence

from ..errors import InvalidSpec
from ..graph.graph import BaseGraph
from ..rng import RandomLike, ensure_rng

Vertex = Hashable

#: The operation vocabulary, in canonical order.
ADD_NODE = "ADD_NODE"
ADD_EDGE = "ADD_EDGE"
DEL_EDGE = "DEL_EDGE"
DEL_NODE = "DEL_NODE"
QUERY_DIST = "QUERY_DIST"
READ_NBRS = "READ_NBRS"

OP_TYPES = (ADD_NODE, ADD_EDGE, DEL_EDGE, DEL_NODE, QUERY_DIST, READ_NBRS)

#: Mutating operation types (everything the repair policy reacts to).
MUTATIONS = (ADD_NODE, ADD_EDGE, DEL_EDGE, DEL_NODE)

#: Read-only operation types.
READS = (QUERY_DIST, READ_NBRS)

#: Format tag stamped into serialized workload documents.
WORKLOAD_FORMAT = "repro-workload"
WORKLOAD_VERSION = 1


@dataclass(frozen=True)
class Operation:
    """One stream element: an operation type plus its parameters."""

    type: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in OP_TYPES:
            raise InvalidSpec(
                f"operation type must be one of {OP_TYPES}, got {self.type!r}"
            )
        # A bad weight is rejected here, before any op of a trace runs:
        # JSON reads NaN and Infinity literals, and NaN passes `< 0`.
        weight = self.params.get("weight", 1.0)
        if self.type == ADD_EDGE and not (
            isinstance(weight, numbers.Real)
            and not isinstance(weight, bool)
            and math.isfinite(weight)
            and weight >= 0
        ):
            raise InvalidSpec(
                f"ADD_EDGE weight must be a finite number >= 0, got {weight!r}"
            )

    @property
    def is_mutation(self) -> bool:
        return self.type in MUTATIONS

    def param(self, key: str) -> Any:
        try:
            return self.params[key]
        except KeyError:
            raise InvalidSpec(
                f"{self.type} operation is missing required param {key!r}"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.type, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Operation":
        if not isinstance(data, Mapping) or "type" not in data:
            raise InvalidSpec(f"not an operation document: {data!r}")
        extra = set(data) - {"type", "params"}
        if extra:
            raise InvalidSpec(
                f"operation document has unknown keys {sorted(extra)}"
            )
        return cls(type=data["type"], params=dict(data.get("params", {})))


def read_write_weights(read_ratio: float) -> Dict[str, float]:
    """Mixed-workload weights for a given read fraction.

    Reads split evenly between ``QUERY_DIST`` and ``READ_NBRS``; writes
    split 40/30/20/10 across ``ADD_EDGE`` / ``DEL_EDGE`` / ``ADD_NODE`` /
    ``DEL_NODE`` — edge churn dominates, matching the benchmark suites'
    default mixes.
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise InvalidSpec(f"read_ratio must be in [0, 1], got {read_ratio!r}")
    write = 1.0 - read_ratio
    return {
        QUERY_DIST: read_ratio / 2,
        READ_NBRS: read_ratio / 2,
        ADD_EDGE: write * 0.4,
        DEL_EDGE: write * 0.3,
        ADD_NODE: write * 0.2,
        DEL_NODE: write * 0.1,
    }


def _require_count(name: str, count: int) -> None:
    """Raise :class:`InvalidSpec` unless ``count`` is a nonnegative op count."""
    if count < 0:
        raise InvalidSpec(f"{name} must be >= 0, got {count}")


class _Pool:
    """A list-backed pool with O(1) seeded sampling and swap-removal.

    The pool never iterates a set, so its behaviour is a pure function of
    the insertion/removal sequence and the RNG — the property the whole
    workload layer's cross-process byte-identity rests on.
    """

    def __init__(self, items: Sequence[Any] = ()):  # noqa: D401
        self._items: List[Any] = list(items)
        self._index: Dict[Any, int] = {x: i for i, x in enumerate(self._items)}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Any) -> bool:
        return item in self._index

    def add(self, item: Any) -> None:
        if item in self._index:
            return
        self._index[item] = len(self._items)
        self._items.append(item)

    def remove(self, item: Any) -> None:
        pos = self._index.pop(item)
        last = self._items.pop()
        if last != item:
            self._items[pos] = last
            self._index[last] = pos

    def choice(self, rng) -> Any:
        return self._items[rng.randrange(len(self._items))]


class WorkloadGenerator:
    """Emit a seeded, always-applicable operation stream for a host graph.

    Parameters
    ----------
    graph:
        The initial host. Only its vertex/edge *names* are read (into the
        generator's mirror); the graph itself is not mutated.
    seed:
        Stream seed; the same seed and initial host give the same ops.
    weights:
        Mapping from op type to relative weight (missing types get 0).
        Defaults to :func:`read_write_weights` at a 90/10 read mix.
    """

    def __init__(
        self,
        graph: BaseGraph,
        seed: RandomLike = None,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._rng = ensure_rng(seed)
        self._directed = graph.directed
        self._nodes = _Pool(list(graph.vertices()))
        self._edges = _Pool(
            [(u, v) for u, v, _w in graph.edges()]
        )
        self._edge_set = set(self._edges._items)
        self._fresh = 0
        weights = dict(weights) if weights is not None else read_write_weights(0.9)
        unknown = set(weights) - set(OP_TYPES)
        if unknown:
            raise InvalidSpec(
                f"workload weights name unknown op types {sorted(unknown)}"
            )
        self._types = [t for t in OP_TYPES if weights.get(t, 0.0) > 0]
        self._weights = [float(weights[t]) for t in self._types]
        if not self._types:
            raise InvalidSpec("workload weights must enable at least one op type")

    def _has_edge(self, u: Vertex, v: Vertex) -> bool:
        # Undirected edges live in the pool under their first-seen
        # orientation, so membership tests try both.
        if (u, v) in self._edge_set:
            return True
        return not self._directed and (v, u) in self._edge_set

    def _fresh_node(self) -> Vertex:
        while True:
            name = f"n{self._fresh}"
            self._fresh += 1
            if name not in self._nodes:
                return name

    # -- op emission ---------------------------------------------------

    def _emit(self, kind: str) -> Optional[Operation]:
        rng = self._rng
        if kind == ADD_NODE:
            v = self._fresh_node()
            self._nodes.add(v)
            return Operation(ADD_NODE, {"v": v})
        if kind == ADD_EDGE:
            if len(self._nodes) < 2:
                return None
            for _ in range(8):
                u = self._nodes.choice(rng)
                v = self._nodes.choice(rng)
                if u != v and not self._has_edge(u, v):
                    self._edges.add((u, v))
                    self._edge_set.add((u, v))
                    return Operation(ADD_EDGE, {"u": u, "v": v, "weight": 1.0})
            return None
        if kind == DEL_EDGE:
            if not len(self._edges):
                return None
            u, v = self._edges.choice(rng)
            self._edges.remove((u, v))
            self._edge_set.discard((u, v))
            return Operation(DEL_EDGE, {"u": u, "v": v})
        if kind == DEL_NODE:
            if len(self._nodes) <= 2:
                return None
            v = self._nodes.choice(rng)
            self._nodes.remove(v)
            # Drop incident edges from the mirror (replay removes them on
            # the host implicitly via remove_vertex).
            incident = [
                (a, b) for a, b in self._edges._items if a == v or b == v
            ]
            for pair in incident:
                self._edges.remove(pair)
                self._edge_set.discard(pair)
            return Operation(DEL_NODE, {"v": v})
        if kind == QUERY_DIST:
            if len(self._nodes) < 2:
                return None
            u = self._nodes.choice(rng)
            v = self._nodes.choice(rng)
            if u == v:
                return None
            return Operation(QUERY_DIST, {"u": u, "v": v})
        # READ_NBRS
        if not len(self._nodes):
            return None
        return Operation(READ_NBRS, {"v": self._nodes.choice(rng)})

    def generate(self, num_ops: int) -> List[Operation]:
        """The next ``num_ops`` operations of the stream.

        An op kind drawn against an empty pool (e.g. ``DEL_EDGE`` with no
        live edges) falls back to ``ADD_EDGE`` and then ``ADD_NODE``, so
        the stream always has exactly ``num_ops`` elements. A negative
        ``num_ops`` raises :class:`InvalidSpec`.
        """
        _require_count("num_ops", num_ops)
        ops: List[Operation] = []
        while len(ops) < num_ops:
            kind = self._rng.choices(self._types, weights=self._weights)[0]
            op = self._emit(kind)
            if op is None:
                op = self._emit(ADD_EDGE) or self._emit(ADD_NODE)
            if op is not None:
                ops.append(op)
        return ops


def apply_mutations(graph: BaseGraph, ops: Sequence[Operation]) -> BaseGraph:
    """Replay a stream's mutations onto ``graph`` (reads are ignored).

    This is the *unserviced* replay: no spanner, no repair — just the
    host-graph evolution. The acceptance checks use it to reconstruct
    the final host independently of the service and compare a
    from-scratch build against the maintained spanner. Inapplicable
    mutations (the stream was generated against a different host state)
    are skipped, matching the service's behaviour. Returns ``graph``.
    """
    for op in ops:
        kind = op.type
        if kind == ADD_NODE:
            graph.add_vertex(op.param("v"))
        elif kind == ADD_EDGE:
            u, v = op.param("u"), op.param("v")
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, float(op.params.get("weight", 1.0)))
        elif kind == DEL_EDGE:
            u, v = op.param("u"), op.param("v")
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
        elif kind == DEL_NODE:
            v = op.param("v")
            if graph.has_vertex(v):
                graph.remove_vertex(v)
    return graph


# -- serialization -----------------------------------------------------


def workload_to_dict(ops: Sequence[Operation]) -> Dict[str, Any]:
    """JSON-able workload document."""
    return {
        "format": WORKLOAD_FORMAT,
        "version": WORKLOAD_VERSION,
        "num_ops": len(ops),
        "ops": [op.to_dict() for op in ops],
    }


def workload_from_dict(data: Mapping[str, Any]) -> List[Operation]:
    """Inverse of :func:`workload_to_dict`; strict about shape."""
    if not isinstance(data, Mapping) or data.get("format") != WORKLOAD_FORMAT:
        raise InvalidSpec(
            f"not a workload document: format={data.get('format') if isinstance(data, Mapping) else data!r}"
        )
    version = data.get("version", WORKLOAD_VERSION)
    if version != WORKLOAD_VERSION:
        raise InvalidSpec(
            f"unsupported workload version {version!r} (this library reads "
            f"version {WORKLOAD_VERSION})"
        )
    return [Operation.from_dict(op) for op in data.get("ops", [])]


def save_workload(ops: Sequence[Operation], path: str) -> None:
    """Write a workload trace as canonical JSON (sorted keys)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload_to_dict(ops), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_workload(path: str) -> List[Operation]:
    """Read a workload trace written by :func:`save_workload`."""
    with open(path, "r", encoding="utf-8") as handle:
        return workload_from_dict(json.load(handle))


__all__ = [
    "ADD_EDGE",
    "ADD_NODE",
    "DEL_EDGE",
    "DEL_NODE",
    "MUTATIONS",
    "OP_TYPES",
    "Operation",
    "QUERY_DIST",
    "READS",
    "READ_NBRS",
    "WorkloadGenerator",
    "apply_mutations",
    "load_workload",
    "read_write_weights",
    "save_workload",
    "workload_from_dict",
    "workload_to_dict",
]
