"""Theorem 2.1: the fault-oversampling conversion.

This is the paper's primary contribution for stretch ``k >= 3``: a black-box
transformation that converts *any* k-spanner construction into an r-fault-
tolerant one. Each iteration independently puts every vertex into a
simulated fault set ``J`` with probability ``p = 1 - 1/r`` (``1/2`` when
``r = 1``), builds a k-spanner of the survivor graph ``G \\ J`` with the
given base algorithm, and unions the results over
``α = Θ(r^3 log n)`` iterations.

Why oversampling works (paper, proof of Theorem 2.1): for a real fault set
``F`` (|F| <= r) and a surviving edge ``(u, v)`` that is a shortest path in
``G \\ F``, a single iteration "covers" the pair when ``u, v ∉ J`` and
``F ⊆ J`` — probability ``(1/r)^2 (1-1/r)^r >= 1/(4r^2)`` — in which case
the base spanner's stretch-k path for ``(u, v)`` in ``G \\ J`` survives in
``G \\ F``. With ``α = Θ(r^3 log n)`` iterations a union bound over all
``(F, edge)`` pairs gives success with high probability.

The expected survivor size is ``n/r`` per iteration, so the union has size
``O(r^3 log n · f(2n/r))``; applying the greedy spanner's
``f(n) = O(n^{1+2/(k+1)})`` yields Theorem 1.1's
``O(r^{2-2/(k+1)} n^{1+2/(k+1)} log n)``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Set

from ..errors import FaultToleranceError, InvalidSpec, InvalidStretch
from ..graph.csr import METHODS, SurvivorView, snapshot
from ..graph.graph import BaseGraph
from ..graph.scenario import FaultScenario
from ..registry import register_algorithm
from ..rng import RandomLike, derive_rng, ensure_rng
from ..spanners.bounds import conversion_iterations, conversion_iterations_light
from ..spanners.greedy import (
    _check_method as _greedy_check_method,
    greedy_spanner,
    make_greedy_kernel,
)

Vertex = Hashable

#: A base spanner algorithm: (graph, stretch) -> spanning subgraph.
BaseSpannerAlgorithm = Callable[[BaseGraph, float], BaseGraph]


def base_algorithm_caller(
    base_algorithm: BaseSpannerAlgorithm, method: str
) -> BaseSpannerAlgorithm:
    """Bind ``method=`` into a base algorithm when its signature takes it.

    The Theorem 2.1 loop calls the base as ``base(survivor_graph, k)``;
    before this helper, a ``method=`` given to the conversion never
    reached the base algorithm, so the resampling loop silently ran the
    base's *default* path. Every library constructor takes the shared
    ``method`` kwarg (:func:`repro.graph.csr.resolve_method` vocabulary),
    so binding it here routes all ``α`` per-iteration builds onto the
    requested kernel path end-to-end. Callables without a ``method``
    parameter (user lambdas) are returned unchanged.
    """
    try:
        parameters = inspect.signature(base_algorithm).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return base_algorithm
    accepts = "method" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    if not accepts:
        return base_algorithm

    def bound(graph: BaseGraph, k: float) -> BaseGraph:
        return base_algorithm(graph, k, method=method)

    return bound


def _require_method(method: str) -> None:
    """Reject a ``method`` outside :data:`repro.graph.csr.METHODS`."""
    if method not in METHODS:
        raise FaultToleranceError(
            f"method must be one of {METHODS}, got {method!r}"
        )


def engine_resolved_method(method: str) -> str:
    """The dispatch tier a greedy-base conversion actually engages.

    ``"dict"`` forces the reference pipeline; anything else runs the
    oversampling engine on the host CSR snapshot, whose greedy kernel is
    ``"compiled"`` when the optional C backend serves the request and
    ``"csr"`` otherwise — the value the registry adapters report as
    ``resolved_method`` so build reports name the true path. These are
    exactly the greedy dispatch rule's values.
    """
    return _greedy_check_method(method)


@dataclass
class ConversionStats:
    """Per-run accounting for the conversion, consumed by benchmarks."""

    iterations: int
    survivor_sizes: List[int] = field(default_factory=list)
    iteration_edge_counts: List[int] = field(default_factory=list)
    union_edge_counts: List[int] = field(default_factory=list)

    @property
    def max_survivor_size(self) -> int:
        """Largest ``|G \\ J|`` over iterations (Thm 2.1 bounds it by 2n/r whp)."""
        return max(self.survivor_sizes, default=0)

    @property
    def final_size(self) -> int:
        """Edge count of the union spanner."""
        return self.union_edge_counts[-1] if self.union_edge_counts else 0


@dataclass
class ConversionResult:
    """Output of :func:`fault_tolerant_spanner`."""

    spanner: BaseGraph
    stats: ConversionStats

    @property
    def num_edges(self) -> int:
        return self.spanner.num_edges


def survival_probability(r: int) -> float:
    """The Theorem 2.1 sampling probability for vertices to *survive*.

    Each vertex joins the simulated fault set ``J`` with probability
    ``1 - 1/r``, i.e. survives with probability ``1/r``; for ``r = 1`` the
    paper uses ``p = 1/2``.
    """
    if r <= 1:
        return 0.5
    return 1.0 / r


def resolve_iterations(
    n: int, r: int, iterations: Optional[int], schedule: str, constant: float
) -> int:
    """Resolve the iteration count ``α`` from explicit value or schedule.

    Schedules: ``"theorem"`` = ``⌈c · r^3 ln n⌉`` (the proof's setting) and
    ``"light"`` = ``⌈c · r^2 ln n⌉`` (ablation; see DESIGN.md §5).
    """
    if iterations is not None:
        if iterations < 1:
            raise FaultToleranceError(f"iterations must be >= 1, got {iterations}")
        return iterations
    if schedule == "theorem":
        return conversion_iterations(n, r, constant)
    if schedule == "light":
        return conversion_iterations_light(n, r, constant)
    raise FaultToleranceError(f"unknown schedule {schedule!r}; use 'theorem' or 'light'")


class _OversamplingEngine:
    """Shared fast path for the Theorem 2.1 iteration body.

    Built once per conversion: snapshots the host into CSR arrays, sorts
    the edge ids by weight once (stable, so ties keep ``edges()`` order),
    and reuses one :class:`IndexedGreedyKernel` across all ``α``
    iterations. Each iteration reduces to (a) one vectorized O(m) pass
    filtering the pre-sorted id list through the survivor bitmask — no
    ``induced_subgraph`` dict is ever built — and (b) a greedy kernel run
    over the surviving ids. The union spanner is a plain set of integer
    edge ids until :meth:`union_graph` materializes it.

    ``method`` picks the kernel behind step (b) through the greedy
    dispatch rule: ``"auto"`` rides the compiled C kernel when
    :mod:`repro.compiled` is available (every masked survivor iteration
    benefits, since surviving ids feed the kernel unchanged) and the
    interpreted ``"csr"`` kernel otherwise; ``"compiled"`` requires the
    backend. :attr:`resolved_method` records the tier actually engaged
    (``"compiled"`` or ``"csr"``) for honest build reports.
    """

    def __init__(self, graph: BaseGraph, k: float, method: str = "auto"):
        self.graph = graph
        self.k = k
        self.csr = snapshot(graph)
        edge_w = self.csr.edge_w
        self.sorted_ids = sorted(range(len(edge_w)), key=edge_w.__getitem__)
        try:  # keep the id list as int64 once; np.asarray is then a no-op per iteration
            import numpy as np

            self.sorted_ids = np.asarray(self.sorted_ids, dtype=np.int64)
        except ImportError:  # pragma: no cover
            pass
        resolved = _greedy_check_method(method)
        self.resolved_method = "compiled" if resolved == "compiled" else "csr"
        self.kernel = make_greedy_kernel(
            self.csr.num_vertices, self.csr.directed, resolved
        )
        self.union_ids: Set[int] = set()

    def iterate(self, view) -> List[int]:
        """Run one oversampling iteration on a survivor view.

        ``view`` is a :class:`repro.graph.csr.SurvivorView` over this
        engine's snapshot (vertex- and/or edge-masked — both fault kinds
        ride the same code path) or a raw vertex survivor mask. Returns
        the iteration's chosen edge ids (the base spanner of ``G \\ J``);
        they are also merged into :attr:`union_ids`.
        """
        csr = self.csr
        if isinstance(view, SurvivorView):
            surviving = view.filter_edge_ids(self.sorted_ids)
        else:
            surviving = csr.filter_edge_ids(self.sorted_ids, view)
        chosen = self.kernel.run_edge_ids(
            surviving, csr.edge_u, csr.edge_v, csr.edge_w, self.k
        )
        self.union_ids.update(chosen)
        return chosen

    def _account(self, chosen: List[int], stats: "ConversionStats") -> None:
        stats.iteration_edge_counts.append(len(chosen))
        stats.union_edge_counts.append(len(self.union_ids))

    def step(self, it_rng, p_survive: float, stats: "ConversionStats") -> List[int]:
        """One full Theorem 2.1 iteration: draw survivors, build, account.

        Consumes the RNG stream exactly like the dict pipeline (one draw
        per vertex, in host vertex order). Shared by both conversion
        drivers so their iteration bodies cannot drift apart.
        """
        alive = [it_rng.random() < p_survive for _ in self.csr.verts]
        stats.survivor_sizes.append(sum(alive))
        chosen = self.iterate(self.csr.survivor_view(alive))
        self._account(chosen, stats)
        return chosen

    def edge_step(self, it_rng, p_survive: float, stats: "ConversionStats") -> List[int]:
        """One Theorem 2.3-style edge-oversampling iteration.

        Consumes one draw per *edge*, in the host's ``edges()`` order
        (edge-id order) — exactly the stream the dict pipeline's
        survivor comprehension draws — and runs the kernel on an
        edge-masked view of the same host snapshot. ``survivor_sizes``
        records surviving *edge* counts, matching the dict pipeline's
        ``sub.num_edges`` accounting.
        """
        edge_alive = [
            it_rng.random() < p_survive for _ in range(self.csr.num_edges)
        ]
        stats.survivor_sizes.append(sum(edge_alive))
        chosen = self.iterate(self.csr.survivor_view(edge_alive=edge_alive))
        self._account(chosen, stats)
        return chosen

    def scenario_step(
        self, scenario, stats: "ConversionStats", *, count_edges: bool = False
    ) -> List[int]:
        """One iteration on an explicit :class:`FaultScenario` (no RNG).

        ``count_edges`` makes ``survivor_sizes`` record surviving *edge*
        counts even for a ``kind="none"`` scenario — the edge pipeline's
        accounting convention.
        """
        view = self.csr.survivor_view(scenario)
        stats.survivor_sizes.append(
            view.num_surviving_edges if count_edges or scenario.kind == "edge"
            else view.num_surviving_vertices
        )
        chosen = self.iterate(view)
        self._account(chosen, stats)
        return chosen

    def add_new_edges_to(self, union: BaseGraph, chosen, materialized: Set[int]) -> None:
        """Incrementally materialize ``chosen`` ids into ``union``.

        Skips ids already added (``materialized`` is the caller-held
        record), so the adaptive driver can keep one persistent union
        graph instead of rebuilding it every validity check.
        """
        csr = self.csr
        verts = csr.verts
        for e in chosen:
            if e not in materialized:
                materialized.add(e)
                union.add_edge(
                    verts[csr.edge_u[e]], verts[csr.edge_v[e]], csr.edge_w[e]
                )

    def union_graph(self) -> BaseGraph:
        """Materialize the union spanner as a dict graph (all host vertices)."""
        csr = self.csr
        union = type(self.graph)()
        union.add_vertices(csr.verts)
        verts = csr.verts
        for e in sorted(self.union_ids):
            union.add_edge(verts[csr.edge_u[e]], verts[csr.edge_v[e]], csr.edge_w[e])
        return union


def fault_tolerant_spanner(
    graph: BaseGraph,
    k: float,
    r: int,
    base_algorithm: BaseSpannerAlgorithm = greedy_spanner,
    iterations: Optional[int] = None,
    schedule: str = "theorem",
    constant: float = 16.0,
    seed: RandomLike = None,
    survival_prob: Optional[float] = None,
    method: str = "auto",
    scenarios: Optional[Sequence[FaultScenario]] = None,
) -> ConversionResult:
    """Build an r-fault-tolerant k-spanner via the Theorem 2.1 conversion.

    Parameters
    ----------
    graph:
        Host graph (undirected or directed) with nonnegative weights.
    k:
        Stretch bound of the base construction (the FT guarantee inherits
        it). The paper's size bounds are for odd ``k >= 3`` via the greedy
        base, but the conversion itself is stretch-agnostic.
    r:
        Number of vertex faults to tolerate, ``r >= 0``. ``r = 0`` reduces
        to a single run of the base algorithm.
    base_algorithm:
        Any function ``(graph, k) -> spanner``; defaults to the greedy
        spanner of [ADD+93], which realizes Corollary 2.2.
    iterations:
        Explicit iteration count ``α``; overrides ``schedule``.
    schedule:
        ``"theorem"`` (``r³ ln n``) or ``"light"`` (``r² ln n``), scaled by
        ``constant``.
    seed:
        Randomness for the fault oversampling. Each iteration draws from an
        independently derived stream.
    survival_prob:
        Override the per-vertex survival probability (default: the paper's
        ``1/r``, or ``1/2`` when r = 1). Exposed for the DESIGN.md §5
        oversampling ablation; non-default values void the size guarantee.
    method:
        The shared dispatch switch (:func:`repro.graph.csr.resolve_method`
        vocabulary), threaded through to the base algorithm so every
        per-iteration build runs on the requested kernel path. The
        default greedy base runs on the CSR engine unless
        ``method="dict"`` forces the reference pipeline; custom base
        algorithms receive ``method=`` when their signature accepts it.
    scenarios:
        Optional explicit list of :class:`repro.graph.scenario
        .FaultScenario` values (kind ``"none"``/``"vertex"``) to replay
        instead of sampling: the iteration count becomes
        ``len(scenarios)``, no randomness is consumed, and each
        iteration builds the base spanner of that scenario's survivor
        graph. This is how a sweep replays the exact fault draws of a
        recorded run (see :meth:`repro.session.Session.scenario`).

    Returns
    -------
    :class:`ConversionResult` with the union spanner and per-iteration
    accounting.
    """
    if k < 1:
        raise InvalidStretch(f"stretch must be >= 1, got {k}")
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    if survival_prob is not None and not 0.0 < survival_prob <= 1.0:
        raise FaultToleranceError(
            f"survival_prob must be in (0, 1], got {survival_prob}"
        )
    _require_method(method)
    use_engine = base_algorithm is greedy_spanner and method != "dict"
    base_algorithm = base_algorithm_caller(base_algorithm, method)

    if scenarios is not None:
        scenarios = list(scenarios)
        if not scenarios:
            raise FaultToleranceError("scenarios must be a non-empty sequence")
        for sc in scenarios:
            if not isinstance(sc, FaultScenario):
                raise FaultToleranceError(
                    f"scenarios must hold FaultScenario values, got {sc!r}"
                )
            if sc.kind == "edge":
                raise FaultToleranceError(
                    "the vertex-fault conversion got an edge scenario; "
                    "use edge_fault_tolerant_spanner for kind='edge'"
                )

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
    p_survive = (
        survival_prob if survival_prob is not None else survival_probability(r)
    )
    rng = ensure_rng(seed)
    stats = ConversionStats(iterations=alpha)
    vertices = list(graph.vertices())

    # The default greedy base runs on the CSR fast path: one host
    # snapshot, per-iteration survivor views, integer edge-id union.
    # Custom base algorithms still get the dict pipeline below.
    engine = _OversamplingEngine(graph, k, method) if use_engine else None

    for i in range(alpha):
        if scenarios is not None:
            if engine is not None:
                engine.scenario_step(scenarios[i], stats)
                continue
            fault = scenarios[i].fault_set()
            survivors = [v for v in vertices if v not in fault]
        else:
            it_rng = derive_rng(rng, i)
            if engine is not None:
                engine.step(it_rng, p_survive, stats)
                continue
            survivors = [v for v in vertices if it_rng.random() < p_survive]
        sub = graph.induced_subgraph(survivors)
        stats.survivor_sizes.append(sub.num_vertices)
        base = base_algorithm(sub, k)
        stats.iteration_edge_counts.append(base.num_edges)
        for u, v, w in base.edges():
            union.add_edge(u, v, w)
        stats.union_edge_counts.append(union.num_edges)

    if engine is not None:
        union = engine.union_graph()
    return ConversionResult(spanner=union, stats=stats)


def fault_tolerant_spanner_until_valid(
    graph: BaseGraph,
    k: float,
    r: int,
    validity_check: Callable[[BaseGraph], bool],
    base_algorithm: BaseSpannerAlgorithm = greedy_spanner,
    batch: int = 8,
    max_iterations: int = 100_000,
    seed: RandomLike = None,
    method: str = "auto",
) -> ConversionResult:
    """Adaptive variant: run iterations until ``validity_check`` accepts.

    Useful for the E1/E3 ablations measuring how many iterations are needed
    *in practice* versus the union-bound-driven ``r^3 log n`` of the
    theorem. ``validity_check`` receives the current union spanner.
    ``method`` is threaded to the base algorithm exactly as in
    :func:`fault_tolerant_spanner`.
    """
    if r < 1:
        raise FaultToleranceError("the adaptive variant requires r >= 1")
    _require_method(method)
    use_engine = base_algorithm is greedy_spanner and method != "dict"
    base_algorithm = base_algorithm_caller(base_algorithm, method)
    union = type(graph)()
    union.add_vertices(graph.vertices())
    p_survive = survival_probability(r)
    rng = ensure_rng(seed)
    stats = ConversionStats(iterations=0)
    vertices = list(graph.vertices())
    engine = _OversamplingEngine(graph, k, method) if use_engine else None
    materialized: Set[int] = set()
    done = 0
    while done < max_iterations:
        for _ in range(batch):
            it_rng = derive_rng(rng, done)
            if engine is not None:
                chosen = engine.step(it_rng, p_survive, stats)
                engine.add_new_edges_to(union, chosen, materialized)
                done += 1
                continue
            survivors = [v for v in vertices if it_rng.random() < p_survive]
            sub = graph.induced_subgraph(survivors)
            stats.survivor_sizes.append(sub.num_vertices)
            base = base_algorithm(sub, k)
            stats.iteration_edge_counts.append(base.num_edges)
            for u, v, w in base.edges():
                union.add_edge(u, v, w)
            stats.union_edge_counts.append(union.num_edges)
            done += 1
        if validity_check(union):
            stats.iterations = done
            return ConversionResult(spanner=union, stats=stats)
    raise FaultToleranceError(
        f"no valid r-fault-tolerant spanner after {max_iterations} iterations"
    )


# ---------------------------------------------------------------------------
# Registry hook (see repro.registry / repro.session)
# ---------------------------------------------------------------------------


def resolve_base_algorithm(spec, seed=None) -> BaseSpannerAlgorithm:
    """Resolve a spec's ``base_algorithm`` param to a ``(graph, k)`` callable.

    ``"greedy"`` (the default) maps to :func:`repro.spanners.greedy
    .greedy_spanner` *itself* so the conversion's CSR engine fast path
    stays engaged; any other registered non-fault-tolerant algorithm is
    wrapped so each survivor graph is built with the spec's method and
    the resolved ``seed``.
    """
    name = spec.param("base_algorithm", "greedy")
    if name == "greedy":
        return greedy_spanner
    from ..registry import get_algorithm

    info = get_algorithm(name)
    if info.fault_tolerant or info.distributed:
        raise InvalidSpec(
            f"base_algorithm must be a plain spanner construction, got the "
            f"{'distributed' if info.distributed else 'fault-tolerant'} "
            f"algorithm {name!r}"
        )

    def base(sub: BaseGraph, k: float) -> BaseGraph:
        sub_spec = spec.replace(
            algorithm=name, faults=type(spec.faults).none(),
            params=dict(spec.param("base_params", {})), graph=None, stretch=k,
        )
        artifact, _stats = info.builder(sub, sub_spec, seed)
        return artifact

    return base


def conversion_stats_dict(stats: ConversionStats) -> dict:
    """JSON-able per-iteration accounting for a :class:`BuildReport`."""
    return {
        "iterations": stats.iterations,
        "max_survivor_size": stats.max_survivor_size,
        "survivor_sizes": list(stats.survivor_sizes),
        "iteration_edge_counts": list(stats.iteration_edge_counts),
        "union_edge_counts": list(stats.union_edge_counts),
    }


@register_algorithm(
    "theorem21",
    summary="Theorem 2.1 fault-oversampling conversion (r vertex faults)",
    stretch_domain="inherits the base algorithm's domain (any k >= 1 for greedy)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    csr_path=True,
    compiled_path=True,
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> fault_tolerant_spanner``."""
    from ..spec import require_fault_kind

    require_fault_kind(spec, "vertex", "none")
    result = fault_tolerant_spanner(
        graph,
        spec.stretch,
        spec.faults.r,
        base_algorithm=resolve_base_algorithm(spec, seed),
        iterations=spec.param("iterations"),
        schedule=spec.param("schedule", "theorem"),
        constant=spec.param("constant", 16.0),
        seed=seed,
        survival_prob=spec.param("survival_prob"),
        method=spec.method,
    )
    stats = conversion_stats_dict(result.stats)
    if spec.param("base_algorithm", "greedy") == "greedy":
        # The greedy-base engine runs on the host snapshot at every
        # size (compiled kernel when the C backend serves) unless the
        # dict pipeline was forced.
        stats["resolved_method"] = engine_resolved_method(spec.method)
    return result, stats


#: Accepted keys of the ``until_valid`` params mapping, with defaults.
UNTIL_VALID_DEFAULTS = {
    "check": "sampled",
    "trials": 30,
    "seed": 0,
    "batch": 8,
    "max_iterations": 100_000,
}


def resolve_validity_check(
    spec, graph: BaseGraph
) -> "tuple[Callable[[BaseGraph], bool], dict]":
    """Build the adaptive variant's validity predicate from spec params.

    The predicate is spec-expressible (plain JSON under
    ``params={"until_valid": {...}}``) so sweep plans can carry adaptive
    builds: ``check`` is ``"sampled"`` (Monte Carlo over ``trials`` fault
    sets, deterministic under the check's own ``seed``) or
    ``"exhaustive"``; ``batch`` / ``max_iterations`` tune the loop.
    Returns the predicate plus the fully-resolved knobs dict.
    """
    knobs = dict(UNTIL_VALID_DEFAULTS)
    given = spec.param("until_valid", {})
    if not isinstance(given, dict):
        raise InvalidSpec(
            f"params['until_valid'] must be a mapping, got {given!r}"
        )
    unknown = set(given) - set(knobs)
    if unknown:
        raise InvalidSpec(
            f"params['until_valid'] has unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(knobs)}"
        )
    knobs.update(given)
    if knobs["check"] not in ("sampled", "exhaustive"):
        raise InvalidSpec(
            "params['until_valid']['check'] must be 'sampled' or "
            f"'exhaustive', got {knobs['check']!r}"
        )
    for key, minimum in (
        ("trials", 1), ("seed", None), ("batch", 1), ("max_iterations", 1)
    ):
        value = knobs[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidSpec(
                f"params['until_valid'][{key!r}] must be an int, got {value!r}"
            )
        if minimum is not None and value < minimum:
            raise InvalidSpec(
                f"params['until_valid'][{key!r}] must be >= {minimum}, "
                f"got {value}"
            )
    k, r = spec.stretch, spec.faults.r
    if knobs["check"] == "exhaustive":
        from .verify import is_fault_tolerant_spanner

        def validity(union: BaseGraph) -> bool:
            return is_fault_tolerant_spanner(union, graph, k, r)

    else:
        from .verify import sampled_fault_check

        trials, check_seed = knobs["trials"], knobs["seed"]

        def validity(union: BaseGraph) -> bool:
            return sampled_fault_check(
                union, graph, k, r, trials=trials, seed=check_seed
            )

    return validity, knobs


@register_algorithm(
    "theorem21-adaptive",
    summary="Theorem 2.1 conversion run until a validity check accepts",
    stretch_domain="inherits the base algorithm's domain (any k >= 1 for greedy)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    fault_kinds=("vertex",),
    csr_path=True,
    compiled_path=True,
)
def _registry_build_adaptive(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> fault_tolerant_spanner_until_valid``.

    The E1/E3 ablations measure how many iterations suffice *in practice*
    versus the theorem's ``r^3 log n`` schedule; registering the adaptive
    driver lets sweep plans carry those points, with the stopping rule
    serialized in ``params={"until_valid": {...}}``.
    """
    from ..spec import require_fault_kind

    require_fault_kind(spec, "vertex")
    validity, knobs = resolve_validity_check(spec, graph)
    result = fault_tolerant_spanner_until_valid(
        graph,
        spec.stretch,
        spec.faults.r,
        validity,
        base_algorithm=resolve_base_algorithm(spec, seed),
        batch=knobs["batch"],
        max_iterations=knobs["max_iterations"],
        seed=seed,
        method=spec.method,
    )
    stats = conversion_stats_dict(result.stats)
    stats["until_valid"] = knobs
    if spec.param("base_algorithm", "greedy") == "greedy":
        stats["resolved_method"] = engine_resolved_method(spec.method)
    return result, stats
