"""The Chechik–Langberg–Peleg–Roditty (CLPR09) baseline.

The paper's Section 2 improves on [CLPR09], which builds r-fault-tolerant
(2t-1)-spanners of size ``O(r^2 t^{r+1} n^{1+1/t} log^{1-1/t} n)`` —
*exponential* in r. As this paper describes it, the CLPR09 construction
conceptually "applies the spanner construction of Thorup and Zwick to every
possible fault set, eventually taking the union of all of these spanners",
with a shared-randomness analysis showing the union stays small.

We implement that description directly, with shared hierarchy randomness
(the ingredient that keeps the union from exploding to ``n^r`` independent
spanners). Enumerating all ``O(n^r)`` fault sets is only feasible at small
``(n, r)``; the benchmark harness combines the exact construction at small
scale with the *proved size bound* (see
:func:`repro.spanners.bounds.clpr_ft_size_bound`) as an analytic curve at
larger scale. DESIGN.md records this substitution.

Execution paths (dispatch rule: :func:`repro.graph.csr.resolve_method`):

* ``method="csr"`` snapshots the host **once** and replays the per-fault
  TZ construction through the compiled kernels: each fault set becomes a
  survivor weight vector (``inf`` on every half-edge incident to a
  faulted vertex — the survivor-bitmask pattern of
  :mod:`repro.core.conversion`), the level distances run as masked
  multi-source passes, the cluster trees as Johnson-primed limited
  batched SSSPs, and the union is a set of integer edge ids;
* ``method="dict"`` is the reference implementation — one
  ``without_vertices`` dict copy per fault set.

Both paths draw the hierarchy randomness identically (host vertex order)
and share the distance-local tree rule of
:mod:`repro.spanners.thorup_zwick`, so a fixed seed yields the same union
spanner edge set either way (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Set

from ..errors import FaultToleranceError
from ..graph.csr import resolve_method, snapshot
from ..graph.graph import BaseGraph
from ..graph.scenario import scenario_fault_sets
from ..registry import register_algorithm
from ..rng import RandomLike, ensure_rng
from ..spanners.thorup_zwick import (
    _cluster_tree_edges,
    _level_centers,
    _level_tree_eids_scipy,
    _multi_source_distances,
    _vertex_order,
    sample_hierarchy,
)
from .verify import count_fault_sets, fault_sets

Vertex = Hashable

#: Safety valve: refuse enumerations beyond this many fault sets.
MAX_FAULT_SETS = 2_000_000


@dataclass
class CLPRResult:
    """Output of :func:`clpr_fault_tolerant_spanner`."""

    spanner: BaseGraph
    stretch: int
    fault_sets_processed: int

    @property
    def num_edges(self) -> int:
        return self.spanner.num_edges


def _clpr_dict(
    graph: BaseGraph, t: int, fault_iter, vertices, shared_levels, rng
) -> CLPRResult:
    """Reference per-fault-set dict pipeline."""
    union = type(graph)()
    union.add_vertices(vertices)
    processed = 0
    for faults in fault_iter:
        fault_set = set(faults)
        sub = graph.without_vertices(fault_set)
        order = _vertex_order(sub)
        if shared_levels is not None:
            levels = [level - fault_set for level in shared_levels]
        else:
            levels = sample_hierarchy(
                [v for v in vertices if v not in fault_set], t, rng
            )
        sub_vertices = list(sub.vertices())
        for i in range(t):
            barrier = (
                _multi_source_distances(sub, levels[i + 1]) if levels[i + 1] else {}
            )
            for w in _level_centers(sub_vertices, levels, i):
                for a, b in _cluster_tree_edges(sub, w, barrier, order):
                    union.add_edge(a, b, graph.weight(a, b))
        processed += 1
    return CLPRResult(spanner=union, stretch=2 * t - 1, fault_sets_processed=processed)


def _clpr_csr(
    graph: BaseGraph, t: int, fault_iter, vertices, shared_levels, rng
) -> CLPRResult:
    """One snapshot; per fault set a masked SurvivorView + kernel passes."""
    snap = snapshot(graph)
    kernels = snap.scipy_kernels()
    index = snap.index
    n = snap.num_vertices
    chosen: Set[int] = set()
    processed = 0
    for faults in fault_iter:
        fault_set = set(faults)
        fidx = [index[f] for f in faults]
        if fidx:
            alive = [True] * n
            for j in fidx:
                alive[j] = False
            view = snap.survivor_view(alive)
            data = view.masked_weights()
            alive_np = view.alive_np()
        else:
            data = None
            alive_np = None
        if shared_levels is not None:
            levels = [level - fault_set for level in shared_levels]
        else:
            levels = sample_hierarchy(
                [v for v in vertices if v not in fault_set], t, rng
            )
        for i in range(t):
            phi_np = None
            if levels[i + 1]:
                sources = sorted(index[v] for v in levels[i + 1])
                phi_np = kernels.multi_source(sources, data=data)
            centers = [index[w] for w in _level_centers(vertices, levels, i)]
            centers = [c for c in centers if alive_np is None or alive_np[c]]
            if not centers:
                continue
            _level_tree_eids_scipy(
                snap, kernels, chosen, centers, phi_np,
                base_data=data, alive_np=alive_np,
            )
        processed += 1
    union = snap.materialize_edge_ids(sorted(chosen))
    return CLPRResult(spanner=union, stretch=2 * t - 1, fault_sets_processed=processed)


def clpr_fault_tolerant_spanner(
    graph: BaseGraph,
    t: int,
    r: int,
    seed: RandomLike = None,
    shared_randomness: bool = True,
    max_fault_sets: int = MAX_FAULT_SETS,
    *,
    method: str = "auto",
    scenarios=None,
) -> CLPRResult:
    """Union-over-fault-sets construction in the style of [CLPR09].

    Parameters
    ----------
    graph:
        Undirected weighted graph.
    t:
        Thorup–Zwick hierarchy depth; the stretch is ``2t - 1``.
    r:
        Fault tolerance. The enumeration covers all ``sum_{i<=r} C(n, i)``
        fault sets and refuses to start beyond ``max_fault_sets``.
    shared_randomness:
        When True (the CLPR09-style setting), one vertex hierarchy is
        sampled and reused across every fault set — the key to the size
        analysis. When False, each fault set gets fresh randomness; this
        ablation shows the union blowing up, motivating the shared scheme.
    method:
        ``"auto"`` (default), ``"csr"``, or ``"dict"`` — see
        :func:`repro.graph.csr.resolve_method`. Both paths produce the
        same union spanner for a fixed seed.
    scenarios:
        Optional explicit fault sets to union over instead of the full
        ``<= r`` enumeration: a sequence of
        :class:`repro.graph.scenario.FaultScenario` values (kind
        ``"none"``/``"vertex"``) or raw vertex iterables. The ``r`` bound
        still caps each scenario's size.
    """
    if t < 1:
        raise FaultToleranceError(f"t must be >= 1, got {t}")
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    n = graph.num_vertices
    vertices = list(graph.vertices())
    if scenarios is not None:
        fault_sets_seq = scenario_fault_sets(scenarios)
        for faults in fault_sets_seq:
            if len(faults) > r:
                raise FaultToleranceError(
                    f"scenario faults {len(faults)} exceed the tolerance r={r}"
                )
        total = len(fault_sets_seq)
    else:
        total = count_fault_sets(n, r)
    if total > max_fault_sets:
        raise FaultToleranceError(
            f"enumerating {total} fault sets exceeds the limit {max_fault_sets}; "
            "use the analytic bound clpr_ft_size_bound at this scale"
        )
    # CLPR rides the TZ kernels, so it shares their undirected-only
    # compiled path: digraphs auto-dispatch to dict, explicit "csr" raises.
    resolved = resolve_method(
        method, n, directed=graph.directed, directed_csr=False
    )
    rng = ensure_rng(seed)
    shared_levels = sample_hierarchy(vertices, t, rng) if shared_randomness else None

    def fault_iter():
        if scenarios is not None:
            return iter(fault_sets_seq)
        return fault_sets(vertices, r)

    if resolved == "csr" and vertices:
        return _clpr_csr(graph, t, fault_iter(), vertices, shared_levels, rng)
    return _clpr_dict(graph, t, fault_iter(), vertices, shared_levels, rng)


@register_algorithm(
    "clpr09",
    summary="CLPR09 union-over-fault-sets r-FT (2t-1)-spanner (exp. in r)",
    stretch_domain="odd integers 2t-1 (3, 5, 7, ...)",
    weighted=True,
    directed=False,
    fault_tolerant=True,
    csr_path=True,
    stretch_kind="odd",
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> clpr_fault_tolerant_spanner``."""
    from ..spec import require_fault_kind, stretch_to_levels

    require_fault_kind(spec, "vertex", "none")
    kwargs = {}
    if spec.param("max_fault_sets") is not None:
        kwargs["max_fault_sets"] = spec.param("max_fault_sets")
    result = clpr_fault_tolerant_spanner(
        graph,
        stretch_to_levels(spec),
        spec.faults.r,
        seed=seed,
        shared_randomness=spec.param("shared_randomness", True),
        method=spec.method,
        **kwargs,
    )
    stats = {
        "stretch": result.stretch,
        "fault_sets_processed": result.fault_sets_processed,
    }
    return result, stats
