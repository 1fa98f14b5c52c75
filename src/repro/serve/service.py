"""The self-healing spanner service.

:class:`SpannerService` owns three coupled structures — the live host
graph, the maintained FT 2-spanner, and an extended
:class:`repro.core.verify.IncrementalFT2Verifier` that watches both — and
applies :mod:`repro.serve.workload` operations against them. Every
mutation updates the verifier in O(Δ), so the service always knows
*exactly which host edges* the spanner currently fails (Lemma 3.1
demands), without ever rescanning the graph.

Damage is repaired by a tiered :class:`RepairPolicy` instead of
rebuild-per-op:

1. **patch** — re-satisfy only the newly-unsatisfied host edges, choosing
   per edge between buying it outright and completing its cheapest
   missing two-path midpoints (cost-aware, deterministic);
2. **region** — past ``patch_threshold`` damage, drop and re-stream the
   spanner only inside the 1-hop region around the damage;
3. **full** — past ``rebuild_threshold``, a from-scratch
   :meth:`repro.session.Session.build` of the spec's algorithm.

Every tier ends with a Lemma 3.1-valid spanner, or the service says so:
reads are answered together with a :class:`ServiceHealth` state, and the
service *never* answers ``QUERY_DIST`` from an invalid spanner without
reporting ``degraded`` — the invariant the robustness tests pin down.
Lazy policies (``eager=False``) deliberately defer repairs to batch
damage, running degraded until :meth:`SpannerService.repair` is called
or the next repair trigger.

The read path. ``READ_NBRS`` reads the dict spanner. ``QUERY_DIST``
depends on the compiled backend (:mod:`repro.compiled`):

* with it, the service keeps :class:`repro.serve.rows.SpannerRows`, an
  index-space copy of the spanner's adjacency that every spanner write
  edits in place (all writes go through ``SpannerService._write``), and
  answers with one C search over those rows: no snapshot is rebuilt
  after a write and no Dijkstra is interpreted. The search grows balls
  from both ends when the rows are undirected with integral weights
  (``SpannerRows.bidirectional``), where every sum it forms is exact,
  and is the one-sided target-stopped Dijkstra otherwise;
* without it, the service warms the spanner's CSR snapshot (rebuilt
  after each write) and runs :func:`repro.graph.paths.dijkstra` with
  ``target=``, which stays the reference the compiled answers are
  pinned to, bit for bit (``tests/test_serve_rows.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..compiled import compiled_available
from ..core.verify import IncrementalFT2Verifier
from ..errors import InvalidSpec
from ..graph.csr import (
    MIN_DISPATCH_VERTICES,
    invalidate_snapshot,
    snapshot as csr_snapshot,
)
from ..graph.graph import BaseGraph
from ..graph.paths import dijkstra
from ..session import Session
from ..spec import FaultModel, SpannerSpec
from .repair import stream_ft2_spanner  # noqa: F401  (re-exported tier)
from .rows import SpannerRows
from .workload import (
    ADD_EDGE,
    ADD_NODE,
    DEL_EDGE,
    OP_TYPES,
    QUERY_DIST,
    Operation,
)

Vertex = Hashable


class ServiceHealth:
    """The service's self-reported states (plain strings, JSON-ready)."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    REBUILDING = "rebuilding"

    ALL = (HEALTHY, DEGRADED, REBUILDING)


#: Repair tier names, in escalation order.
TIERS = ("patch", "region", "full")


@dataclass(frozen=True)
class RepairPolicy:
    """When to escalate from local patching to rebuilding.

    ``damage`` is the fraction of live host edges currently unsatisfied.
    Up to ``patch_threshold`` the service patches locally; up to
    ``rebuild_threshold`` it re-streams the touched region; beyond that
    it rebuilds from scratch. ``eager=False`` defers all repair until a
    read arrives or :meth:`SpannerService.repair` is called, running
    ``degraded`` in between. ``always_full=True`` is the
    rebuild-per-mutation baseline the benchmark measures against.
    """

    patch_threshold: float = 0.02
    rebuild_threshold: float = 0.10
    eager: bool = True
    always_full: bool = False

    def __post_init__(self) -> None:
        if self.patch_threshold > self.rebuild_threshold:
            raise InvalidSpec(
                f"patch_threshold ({self.patch_threshold}) must not exceed "
                f"rebuild_threshold ({self.rebuild_threshold})"
            )

    @classmethod
    def rebuild_per_mutation(cls) -> "RepairPolicy":
        """The naive baseline: a full rebuild after every mutation."""
        return cls(patch_threshold=0.0, rebuild_threshold=0.0, always_full=True)

    @classmethod
    def lazy(
        cls, patch_threshold: float = 0.02, rebuild_threshold: float = 0.10
    ) -> "RepairPolicy":
        """Defer repairs; the service runs degraded between triggers."""
        return cls(
            patch_threshold=patch_threshold,
            rebuild_threshold=rebuild_threshold,
            eager=False,
        )

    def tier_for(self, damage_fraction: float) -> str:
        if self.always_full:
            return "full"
        if damage_fraction <= self.patch_threshold:
            return "patch"
        if damage_fraction <= self.rebuild_threshold:
            return "region"
        return "full"


@dataclass
class ServiceStats:
    """Op-level accounting; everything here is JSON-able."""

    ops: Dict[str, int] = field(
        default_factory=lambda: {t: 0 for t in OP_TYPES}
    )
    skipped: int = 0
    tiers: Dict[str, int] = field(
        default_factory=lambda: {t: 0 for t in TIERS}
    )
    repaired_edges: int = 0
    degraded_answers: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops": dict(self.ops),
            "skipped": self.skipped,
            "tiers": dict(self.tiers),
            "repaired_edges": self.repaired_edges,
            "degraded_answers": self.degraded_answers,
        }


@dataclass
class OpResult:
    """Outcome of one applied operation.

    ``value`` is the answer for reads (distance or neighbour list; ``None``
    for unreachable / missing targets), ``tier`` the repair tier this op
    triggered (``None`` when no repair ran), ``damage`` the number of
    unsatisfied host edges *after* the op, and ``health`` the service
    state the answer was produced under.
    """

    index: int
    type: str
    ok: bool
    health: str
    value: Any = None
    tier: Optional[str] = None
    damage: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "type": self.type,
            "ok": self.ok,
            "health": self.health,
            "value": self.value,
            "tier": self.tier,
            "damage": self.damage,
        }


def spanner_digest(graph: BaseGraph) -> str:
    """Stable digest of a graph's edge set (orientation-canonical).

    Two graphs with the same vertex labels, directedness, edges, and
    weights share a digest regardless of insertion order or hash seed —
    the equality the serve CI asserts between the maintained spanner, a
    replay under a different ``PYTHONHASHSEED``, and a from-scratch
    rebuild on the final host.
    """
    rows = []
    for u, v, w in graph.edges():
        a, b = repr(u), repr(v)
        if not graph.directed and b < a:
            a, b = b, a
        rows.append([a, b, float(w)])
    rows.sort()
    blob = json.dumps({"directed": graph.directed, "edges": rows})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class SpannerService:
    """A long-lived FT 2-spanner kept valid under an operation stream.

    Parameters
    ----------
    graph:
        The initial host. The service takes ownership and mutates it in
        place as the stream is applied.
    spec:
        The build request for the (re)build tier; must have stretch 2.
        Defaults to ``ft2-stream`` with ``FaultModel.vertex(r)``.
    r:
        Shorthand fault tolerance when ``spec`` is omitted (default 1).
    policy:
        The :class:`RepairPolicy`; defaults to eager tiered repair.
    session:
        The executing :class:`repro.session.Session` (a fresh one with
        ``seed`` otherwise); rebuild seeds derive from it.
    """

    def __init__(
        self,
        graph: BaseGraph,
        spec: Optional[SpannerSpec] = None,
        *,
        r: int = 1,
        policy: Optional[RepairPolicy] = None,
        session: Optional[Session] = None,
        seed: Optional[int] = None,
    ) -> None:
        if spec is None:
            spec = SpannerSpec(
                "ft2-stream", stretch=2, faults=FaultModel.vertex(r)
            )
        if spec.stretch != 2:
            raise InvalidSpec(
                "SpannerService maintains Lemma 3.1 (stretch-2) invariants; "
                f"got a spec with stretch {spec.stretch!r}"
            )
        if spec.graph is not None:
            spec = spec.replace(graph=None)
        self.host = graph
        self.spec = spec
        self.r = spec.faults.r
        self._need = self.r + 1
        self.policy = policy or RepairPolicy()
        self.session = session or Session(seed=seed)
        self.stats = ServiceStats()
        self.health = ServiceHealth.HEALTHY
        self._ops_applied = 0
        report = self.session.build(spec, graph=graph)
        spanner = report.spanner
        if spanner is None:
            raise InvalidSpec(
                f"algorithm {spec.algorithm!r} did not produce a spanner graph"
            )
        self._adopt(spanner)

    # -- introspection -------------------------------------------------

    @property
    def damage(self) -> int:
        """Host edges currently violating Lemma 3.1."""
        return self.verifier.num_unsatisfied

    @property
    def damage_fraction(self) -> float:
        return self.damage / max(1, self.verifier.num_host_edges)

    def is_valid(self) -> bool:
        """Whether the maintained spanner is Lemma 3.1-valid right now."""
        return self.verifier.is_valid()

    def summary(self) -> Dict[str, Any]:
        """JSON-able service summary (deterministic; no timing)."""
        return {
            "health": self.health,
            "valid": self.is_valid(),
            "damage": self.damage,
            "ops_applied": self._ops_applied,
            "host_vertices": self.host.num_vertices,
            "host_edges": self.host.num_edges,
            "spanner_edges": self.spanner.num_edges,
            "r": self.r,
            "algorithm": self.spec.algorithm,
            "policy": {
                "patch_threshold": self.policy.patch_threshold,
                "rebuild_threshold": self.policy.rebuild_threshold,
                "eager": self.policy.eager,
                "always_full": self.policy.always_full,
            },
            "stats": self.stats.to_dict(),
        }

    # -- spanner bookkeeping -------------------------------------------

    def _adopt(self, spanner: BaseGraph) -> None:
        """Serve ``spanner``: a fresh verifier, and rows for the C reads."""
        self.spanner = spanner
        self.verifier = IncrementalFT2Verifier(self.host, self.r, spanner)
        self._rows = SpannerRows(spanner) if compiled_available() else None

    def _write(self, method: str, *args: Any) -> None:
        """Apply one spanner write to the dict graph, then to the rows.

        Every spanner mutation goes through here (``add_vertex``,
        ``remove_vertex``, ``add_edge``, ``remove_edge``), so the rows
        that answer ``QUERY_DIST`` never miss one.
        """
        getattr(self.spanner, method)(*args)
        if self._rows is not None:
            getattr(self._rows, method)(*args)

    def _buy(self, u: Vertex, v: Vertex) -> None:
        """Add host edge ``(u, v)`` to the spanner (graph + verifier)."""
        if not self.spanner.has_edge(u, v):
            self._write("add_edge", u, v, self.host.weight(u, v))
            self.verifier.add_edge(u, v)
            self.stats.repaired_edges += 1

    def _drop_spanner_edge(self, u: Vertex, v: Vertex) -> None:
        self._write("remove_edge", u, v)
        self.verifier.remove_edge(u, v)

    # -- repair tiers --------------------------------------------------

    def _spanner_cost(self, u: Vertex, v: Vertex) -> float:
        """Cost of making ``(u, v)`` a spanner edge (0 if already there)."""
        return 0.0 if self.spanner.has_edge(u, v) else self.host.weight(u, v)

    def _patch_edge(self, u: Vertex, v: Vertex) -> None:
        """Re-satisfy one host edge: cheapest midpoints vs. buying it.

        Candidate midpoints are scanned in host adjacency (insertion)
        order, so the choice — and with it the repaired spanner — is
        independent of hash seeds.
        """
        verifier = self.verifier
        missing = self._need - verifier.count_two_paths(u, v)
        if missing <= 0 or verifier.has_edge(u, v):
            return
        host = self.host
        out_u = host.successors(u) if host.directed else host.neighbors(u)
        candidates: List[Tuple[float, int, Vertex]] = []
        for idx, z in enumerate(out_u):
            if z == v or not host.has_edge(z, v):
                continue
            if verifier.has_edge(u, z) and verifier.has_edge(z, v):
                continue  # midpoint already counted
            cost = self._spanner_cost(u, z) + self._spanner_cost(z, v)
            candidates.append((cost, idx, z))
        candidates.sort()
        chosen = candidates[:missing]
        edge_cost = self.host.weight(u, v)
        if len(chosen) < missing or sum(c for c, _i, _z in chosen) > edge_cost:
            self._buy(u, v)
            return
        for _cost, _idx, z in chosen:
            self._buy(u, z)
            self._buy(z, v)

    def _patch(self) -> None:
        """Tier 1: re-satisfy exactly the currently-unsatisfied edges.

        Purchases only ever add two-paths, so one pass over the damage
        list (in the verifier's deterministic order) ends valid.
        """
        for u, v in self.verifier.unsatisfied():
            self._patch_edge(u, v)

    def _region_rebuild(self) -> None:
        """Tier 2: drop and re-stream the spanner inside the damage region.

        The region is the damaged endpoints plus their 1-hop host
        neighbourhoods (collected in deterministic order). Edges crossing
        the region boundary can lose midpoints when in-region spanner
        edges are dropped; the closing :meth:`_patch` pass re-satisfies
        those.
        """
        host = self.host
        region: Dict[Vertex, None] = {}
        for u, v in self.verifier.unsatisfied():
            region.setdefault(u)
            region.setdefault(v)
        for seed_vertex in list(region):
            nbrs = (
                host.successors(seed_vertex)
                if host.directed
                else host.neighbors(seed_vertex)
            )
            for z in nbrs:
                region.setdefault(z)
        in_region = [
            (u, v)
            for u, v, _w in self.spanner.edges()
            if u in region and v in region
        ]
        for u, v in in_region:
            self._drop_spanner_edge(u, v)
        need = self._need
        verifier = self.verifier
        for u, v, _w in host.edges():
            if u not in region or v not in region:
                continue
            if not verifier.has_edge(u, v) and verifier.count_two_paths(u, v) < need:
                self._buy(u, v)
        if not verifier.is_valid():
            self._patch()

    def _full_rebuild(self) -> None:
        """Tier 3: from-scratch build of the spec's algorithm."""
        self.health = ServiceHealth.REBUILDING
        report = self.session.build(self.spec, graph=self.host)
        spanner = report.spanner
        assert spanner is not None  # checked at construction time
        self._adopt(spanner)

    def repair(self, tier: Optional[str] = None) -> Optional[str]:
        """Run one repair, choosing the tier from current damage.

        Returns the tier that ran, or ``None`` when the spanner was
        already valid (explicit ``tier`` forces a run regardless).
        """
        if tier is None:
            if self.is_valid():
                self.health = ServiceHealth.HEALTHY
                return None
            tier = self.policy.tier_for(self.damage_fraction)
        if tier not in TIERS:
            raise InvalidSpec(f"repair tier must be one of {TIERS}, got {tier!r}")
        if tier == "patch":
            self._patch()
        elif tier == "region":
            self._region_rebuild()
        else:
            self._full_rebuild()
        self.stats.tiers[tier] += 1
        self.health = (
            ServiceHealth.HEALTHY if self.is_valid() else ServiceHealth.DEGRADED
        )
        return tier

    # -- operations ----------------------------------------------------

    def _apply_mutation(self, op: Operation) -> bool:
        host, spanner, verifier = self.host, self.spanner, self.verifier
        kind = op.type
        if kind == ADD_NODE:
            v = op.param("v")
            if host.has_vertex(v):
                return False
            host.add_vertex(v)
            self._write("add_vertex", v)
            verifier.add_host_vertex(v)
            return True
        if kind == ADD_EDGE:
            u, v = op.param("u"), op.param("v")
            if u == v or host.has_edge(u, v):
                return False
            weight = float(op.params.get("weight", 1.0))
            host.add_edge(u, v, weight)
            self._write("add_vertex", u)
            self._write("add_vertex", v)
            verifier.add_host_edge(u, v)
            return True
        if kind == DEL_EDGE:
            u, v = op.param("u"), op.param("v")
            if not host.has_edge(u, v):
                return False
            if spanner.has_edge(u, v):
                self._write("remove_edge", u, v)
            verifier.remove_host_edge(u, v)
            host.remove_edge(u, v)
            return True
        # DEL_NODE
        v = op.param("v")
        if not host.has_vertex(v):
            return False
        verifier.remove_host_vertex(v)
        host.remove_vertex(v)
        if spanner.has_vertex(v):
            self._write("remove_vertex", v)
        return True

    def _answer(self, op: Operation) -> Tuple[bool, Any]:
        spanner = self.spanner
        if op.type == QUERY_DIST:
            u, v = op.param("u"), op.param("v")
            if not spanner.has_vertex(u) or not spanner.has_vertex(v):
                return False, None
            if self._rows is not None:
                dist = self._rows.distance(u, v)
            else:
                if spanner.num_vertices >= MIN_DISPATCH_VERTICES:
                    # Targeted dijkstra only rides an *already-built* CSR
                    # snapshot; warming it here is amortized by the version
                    # cache across every read until the spanner next mutates.
                    csr_snapshot(spanner)
                dist = dijkstra(spanner, u, target=v).get(v)
            if dist is None or math.isinf(dist):
                return True, None
            return True, dist
        # READ_NBRS
        v = op.param("v")
        if not spanner.has_vertex(v):
            return False, None
        nbrs = spanner.successors(v) if spanner.directed else spanner.neighbors(v)
        return True, list(nbrs)

    def apply(self, op: Operation) -> OpResult:
        """Apply one operation; mutations trigger the repair policy.

        The invariant: a read answered while the spanner is invalid
        always carries ``health="degraded"`` (and is counted in
        ``stats.degraded_answers``) — the service degrades gracefully,
        never silently.
        """
        index = self._ops_applied
        self._ops_applied += 1
        self.stats.ops[op.type] = self.stats.ops.get(op.type, 0) + 1
        tier: Optional[str] = None
        value: Any = None
        if op.is_mutation:
            ok = self._apply_mutation(op)
            if not ok:
                self.stats.skipped += 1
            else:
                # The host's cached CSR arrays (if some global query built
                # them) can never be valid again; release them eagerly.
                invalidate_snapshot(self.host)
                if self.policy.always_full:
                    tier = self.repair(tier="full")
                elif not self.is_valid():
                    if self.policy.eager:
                        tier = self.repair()
                    else:
                        self.health = ServiceHealth.DEGRADED
        else:
            if not self.is_valid():
                self.health = ServiceHealth.DEGRADED
                self.stats.degraded_answers += 1
            else:
                self.health = ServiceHealth.HEALTHY
            ok, value = self._answer(op)
            if not ok:
                self.stats.skipped += 1
        return OpResult(
            index=index,
            type=op.type,
            ok=ok,
            health=self.health,
            value=value,
            tier=tier,
            damage=self.damage,
        )

    def apply_all(self, ops: Sequence[Operation]) -> List[OpResult]:
        """Apply a whole stream in order."""
        return [self.apply(op) for op in ops]


__all__ = [
    "OpResult",
    "RepairPolicy",
    "ServiceHealth",
    "ServiceStats",
    "SpannerService",
    "TIERS",
    "spanner_digest",
]
