"""Edge-fault-tolerant spanners — the conversion's other natural setting.

The paper focuses on *vertex* faults (the harder model), but the same
oversampling conversion handles *edge* faults verbatim — indeed the
distributed statement (Theorem 2.3) is phrased with "each edge
independently decides whether or not to join J". This module provides:

* :func:`edge_fault_tolerant_spanner` — Theorem 2.1 with edge
  oversampling: each iteration removes every edge independently with
  probability ``1 - 1/r``, spans the survivor, and unions the results.
  The analysis carries over: for a real edge-fault set ``F`` (|F| <= r)
  and a surviving edge that is a shortest path in ``G \\ F``, one
  iteration covers the pair when the edge survives and ``F`` is sampled
  out — probability ``(1/r)(1 - 1/r)^r >= 1/(2er)`` — so
  ``Θ(r² log n)``-ish iterations suffice for a union bound over
  ``m^{r+1}`` pairs (we keep the same schedule knobs as the vertex case).
* exhaustive / Monte Carlo verifiers against the edge-fault definition;
* :func:`is_edge_ft_2spanner` — the Lemma 3.1 analogue for ``k = 2``.
  The per-edge condition turns out to be *identical* to the vertex-fault
  one ("kept, or covered by r + 1 two-paths"): a host edge only needs
  checking against fault sets that do **not** contain it (otherwise it is
  not an edge of ``G - F``), so a kept edge always survives for the fault
  sets that matter; and two-paths with distinct midpoints are pairwise
  edge-disjoint, so ``r`` edge faults kill at most ``r`` of ``r + 1`` of
  them. Necessity of ``r + 1`` follows by faulting one edge of each
  two-path. The test suite checks this equivalence against the exhaustive
  edge-fault verifier (``tests/test_core_edge_faults.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import FaultToleranceError, InvalidStretch
from ..graph.graph import BaseGraph
from ..graph.paths import dijkstra
from ..graph.scenario import FaultScenario
from ..registry import register_algorithm
from ..rng import RandomLike, derive_rng, ensure_rng
from ..spanners.greedy import greedy_spanner
from .conversion import (
    BaseSpannerAlgorithm,
    ConversionResult,
    ConversionStats,
    _OversamplingEngine,
    _require_method,
    base_algorithm_caller,
    conversion_stats_dict,
    engine_resolved_method,
    resolve_base_algorithm,
    resolve_iterations,
    survival_probability,
)
from .verify import _SLACK, _compiled_check, _CompiledFaultCheck, count_two_paths

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


def edge_fault_sets(
    edges: Sequence[EdgeKey], r: int
) -> Iterator[Tuple[EdgeKey, ...]]:
    """Enumerate every edge-fault set of size at most ``r``."""
    edges = list(edges)
    for size in range(min(r, len(edges)) + 1):
        yield from itertools.combinations(edges, size)


def _without_edges(graph: BaseGraph, faults: Iterable[EdgeKey]) -> BaseGraph:
    """Copy of ``graph`` with the faulted edges removed.

    Fault keys may be given in either orientation for undirected graphs.
    """
    out = graph.copy()
    for (u, v) in faults:
        if out.has_edge(u, v):
            out.remove_edge(u, v)
    return out


def edge_fault_tolerant_spanner(
    graph: BaseGraph,
    k: float,
    r: int,
    base_algorithm: BaseSpannerAlgorithm = greedy_spanner,
    iterations: Optional[int] = None,
    schedule: str = "light",
    constant: float = 16.0,
    seed: RandomLike = None,
    method: str = "auto",
    scenarios: Optional[Sequence[FaultScenario]] = None,
) -> ConversionResult:
    """Theorem 2.1 conversion against *edge* faults.

    Mirrors :func:`repro.core.conversion.fault_tolerant_spanner`, but each
    iteration samples a set ``J`` of *edges* (every edge joins ``J``
    independently with probability ``1 - 1/r``) and spans ``G`` minus
    those edges. The default schedule is "light" (``r² log n``): the
    per-pair success probability here is ``(1/r)(1-1/r)^r``, one ``1/r``
    factor better than the vertex case's ``(1/r)²(1-1/r)^r``. ``method``
    is threaded through to the base algorithm (see
    :func:`repro.core.conversion.base_algorithm_caller`); with the
    default greedy base and any non-``"dict"`` method the whole loop
    runs on edge-masked :class:`repro.graph.csr.SurvivorView`\\ s of one
    host snapshot — no ``edge_subgraph`` is ever materialized.

    ``scenarios`` optionally supplies an explicit list of
    :class:`repro.graph.scenario.FaultScenario` values (kind ``"none"``
    or ``"edge"``) to replay instead of sampling: the iteration count
    becomes ``len(scenarios)`` and no randomness is consumed.
    """
    if k < 1:
        raise InvalidStretch(f"stretch must be >= 1, got {k}")
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    _require_method(method)
    if scenarios is not None:
        scenarios = list(scenarios)
        if not scenarios:
            raise FaultToleranceError("scenarios must be a non-empty sequence")
        for sc in scenarios:
            if not isinstance(sc, FaultScenario):
                raise FaultToleranceError(
                    f"scenarios must hold FaultScenario values, got {sc!r}"
                )
            if sc.kind == "vertex":
                raise FaultToleranceError(
                    "the edge-fault conversion got a vertex scenario; "
                    "use fault_tolerant_spanner for kind='vertex'"
                )
    use_engine = base_algorithm is greedy_spanner and method != "dict"
    base_algorithm = base_algorithm_caller(base_algorithm, method)

    union = type(graph)()
    union.add_vertices(graph.vertices())
    n = graph.num_vertices

    if r == 0 and scenarios is None:
        base = base_algorithm(graph, k)
        for u, v, w in base.edges():
            union.add_edge(u, v, w)
        stats = ConversionStats(
            iterations=1,
            survivor_sizes=[n],
            iteration_edge_counts=[base.num_edges],
            union_edge_counts=[union.num_edges],
        )
        return ConversionResult(spanner=union, stats=stats)

    if scenarios is not None:
        alpha = len(scenarios)
    else:
        alpha = resolve_iterations(n, r, iterations, schedule, constant)
    p_survive = survival_probability(r)
    rng = ensure_rng(seed)
    stats = ConversionStats(iterations=alpha)
    edges = [(u, v) for u, v, _w in graph.edges()]

    # With the default greedy base the loop shares the vertex pipeline's
    # oversampling engine: one host snapshot, per-iteration edge-masked
    # views, integer edge-id union. Custom bases keep the dict pipeline.
    engine = _OversamplingEngine(graph, k, method) if use_engine else None

    for i in range(alpha):
        if scenarios is not None:
            if engine is not None:
                engine.scenario_step(scenarios[i], stats, count_edges=True)
                continue
            fault = scenarios[i].edge_fault_set()
            surviving_edges = [
                e for e in edges
                if e not in fault and (e[1], e[0]) not in fault
            ]
        else:
            it_rng = derive_rng(rng, i)
            if engine is not None:
                engine.edge_step(it_rng, p_survive, stats)
                continue
            surviving_edges = [e for e in edges if it_rng.random() < p_survive]
        sub = graph.edge_subgraph(surviving_edges)
        # survivor_sizes records the analogous quantity: surviving edges.
        stats.survivor_sizes.append(sub.num_edges)
        base = base_algorithm(sub, k)
        stats.iteration_edge_counts.append(base.num_edges)
        for u, v, w in base.edges():
            union.add_edge(u, v, w)
        stats.union_edge_counts.append(union.num_edges)

    if engine is not None:
        union = engine.union_graph()
    return ConversionResult(spanner=union, stats=stats)


def _edge_spanner_holds(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    faults: Iterable[EdgeKey],
    check: Optional[_CompiledFaultCheck] = None,
) -> bool:
    """Spanner condition of ``H - F`` against ``G - F`` (edge faults).

    With ``check`` (from :func:`repro.core.verify._compiled_check`) the
    per-edge criterion runs in C; without it this is the dict reference,
    the edge-fault twin of
    :func:`repro.core.verify._spanner_holds_after_faults`.
    """
    if check is not None:
        return check.edge_faults(faults)
    fault_list = list(faults)
    g_f = _without_edges(graph, fault_list)
    h_f = _without_edges(spanner, fault_list)
    for u in g_f.vertices():
        out = (
            dict(g_f.successor_items(u))
            if g_f.directed
            else dict(g_f.neighbor_items(u))
        )
        if not out:
            continue
        dist_g = dijkstra(g_f, u)
        dist_h = dijkstra(h_f, u) if h_f.has_vertex(u) else {}
        for v in out:
            if dist_h.get(v, math.inf) > k * dist_g[v] * _SLACK:
                return False
    return True


def is_edge_fault_tolerant_spanner(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    r: int,
    scenarios: Optional[Iterable] = None,
) -> bool:
    """Exhaustive r-edge-fault-tolerance verification.

    Enumerates every edge subset of size <= r unless ``scenarios`` gives
    explicit sets (:class:`repro.graph.scenario.FaultScenario` values of
    kind ``"none"``/``"edge"``, or raw edge-tuple iterables); callers
    must keep ``C(m, r)`` small.
    """
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    if scenarios is None:
        edges = [(u, v) for u, v, _w in graph.edges()]
        to_check: Iterable = edge_fault_sets(edges, r)
    else:
        from ..graph.scenario import scenario_edge_fault_sets

        to_check = scenario_edge_fault_sets(scenarios)
    check = _compiled_check(spanner, graph, k)
    for faults in to_check:
        if not _edge_spanner_holds(spanner, graph, k, faults, check):
            return False
    return True


def sampled_edge_fault_check(
    spanner: BaseGraph,
    graph: BaseGraph,
    k: float,
    r: int,
    trials: int = 100,
    seed: RandomLike = None,
) -> bool:
    """Monte Carlo r-edge-fault-tolerance check."""
    rng = ensure_rng(seed)
    edges = [(u, v) for u, v, _w in graph.edges()]
    if not edges:
        return True
    check = _compiled_check(spanner, graph, k)
    for _ in range(trials):
        size = rng.randint(0, min(r, len(edges)))
        faults = rng.sample(edges, size)
        if not _edge_spanner_holds(spanner, graph, k, faults, check):
            return False
    return True


def edge_satisfied_for_edge_faults(
    spanner: BaseGraph, u: Vertex, v: Vertex, r: int
) -> bool:
    """Per-edge condition of the Lemma 3.1 analogue (see module docstring).

    Identical to the vertex-fault condition: the edge is kept, or covered
    by ``r + 1`` two-paths. A kept edge suffices because a host edge is
    only checked against fault sets that do not remove it; two-paths with
    distinct midpoints are pairwise edge-disjoint, so ``r`` edge faults
    kill at most ``r`` of them.
    """
    if spanner.has_edge(u, v):
        return True
    return count_two_paths(spanner, u, v) >= r + 1


def is_edge_ft_2spanner(spanner: BaseGraph, graph: BaseGraph, r: int) -> bool:
    """Exact polynomial verification for k = 2, unit lengths, edge faults."""
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    return all(
        edge_satisfied_for_edge_faults(spanner, u, v, r)
        for u, v, _w in graph.edges()
    )


@register_algorithm(
    "theorem21-edge",
    summary="Theorem 2.1 conversion against r edge faults (link cuts)",
    stretch_domain="inherits the base algorithm's domain (any k >= 1 for greedy)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    # The default greedy base runs every iteration on edge-masked views
    # of one host CSR snapshot, so sessions should prime it.
    csr_path=True,
    compiled_path=True,
    fault_kinds=("none", "edge"),
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> edge_fault_tolerant_spanner``."""
    from ..spec import require_fault_kind

    require_fault_kind(spec, "edge", "none")
    result = edge_fault_tolerant_spanner(
        graph,
        spec.stretch,
        spec.faults.r,
        base_algorithm=resolve_base_algorithm(spec, seed),
        iterations=spec.param("iterations"),
        schedule=spec.param("schedule", "light"),
        constant=spec.param("constant", 16.0),
        seed=seed,
        method=spec.method,
    )
    stats = conversion_stats_dict(result.stats)
    if spec.param("base_algorithm", "greedy") == "greedy":
        # The greedy base runs the oversampling engine on edge-masked
        # views of the host snapshot (size-independent, compiled kernel
        # when the C backend serves) unless the dict reference was forced.
        stats["resolved_method"] = engine_resolved_method(spec.method)
    return result, stats
