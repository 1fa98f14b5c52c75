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

Edge faults run the same loop with ``kind="edge"``: each iteration puts
every *edge* into ``J`` instead, as Theorem 2.3 phrases the sampling.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from ..errors import FaultToleranceError, InvalidSpec, InvalidStretch
from ..graph.csr import METHODS, snapshot
from ..graph.graph import BaseGraph
from ..graph.scenario import FaultScenario
from ..registry import register_algorithm
from ..rng import RandomLike, derive_rng, derive_seed, ensure_rng
from ..spanners.bounds import conversion_iterations, conversion_iterations_light
from ..spanners.greedy import (
    IndexedGreedyKernel,
    _check_method as _greedy_check_method,
    greedy_spanner,
)
from .verify import _fault_units, _first_violation

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
    """The Theorem 2.1 iteration body for the default greedy base.

    Built once per conversion: snapshots the host into CSR arrays and
    sorts the edge ids by weight once (stable, so ties keep ``edges()``
    order). No ``induced_subgraph`` dict is ever built, and the union is
    a set of integer edge ids until :meth:`union_graph` materializes it.

    ``method`` picks the tier through the greedy dispatch rule, and
    :attr:`resolved_method` records the one engaged for honest build
    reports. ``"auto"`` selects ``"compiled"`` when :mod:`repro.compiled`
    loads and ``"csr"`` otherwise; an explicit ``"compiled"`` requires
    the backend.

    * ``"compiled"``: :meth:`run_compiled` runs a whole batch of
      iterations in one C call (:func:`repro.compiled.oversample
      .oversample`): survivor draws from each iteration's child seed or a
      replayed mask, the masked greedy pass, and the union as a byte mask
      over edge ids. The call splits the iterations across CPU threads.
    * ``"csr"`` (no compiler): :meth:`step` runs one iteration, filtering
      the weight-sorted ids through a survivor view into the interpreted
      :class:`~repro.spanners.greedy.IndexedGreedyKernel`; the union is
      a set of ids.
    """

    def __init__(self, graph: BaseGraph, k: float, kind: str, method: str):
        self.k = k
        self.kind = kind
        self.csr = snapshot(graph)
        edge_w = self.csr.edge_w
        # int64 once, so np.asarray is a no-op per iteration.
        self.sorted_ids = np.asarray(
            sorted(range(len(edge_w)), key=edge_w.__getitem__), dtype=np.int64
        )
        resolved = _greedy_check_method(method)
        self.resolved_method = "compiled" if resolved == "compiled" else "csr"
        if self.resolved_method == "compiled":
            csr = self.csr
            self._arrays = (
                *csr.endpoints_np(), np.asarray(csr.edge_w, dtype=np.float64)
            )
            self.union_mask = np.zeros(csr.num_edges, dtype=np.uint8)
        else:
            self.kernel = IndexedGreedyKernel(
                self.csr.num_vertices, self.csr.directed
            )
            self.union_ids: Set[int] = set()

    def step(self, alive: Sequence[bool], stats: ConversionStats) -> List[int]:
        """Run one interpreted iteration on a survivor mask.

        ``alive`` has one flag per host vertex (snapshot order) or, for
        an edge-fault engine, per host edge (edge-id order). Records the
        iteration's chosen and union counts in ``stats`` and returns the
        ids it added to the union, in pick order.
        """
        csr = self.csr
        if self.kind == "vertex":
            view = csr.survivor_view(alive)
        else:
            view = csr.survivor_view(edge_alive=alive)
        chosen = self.kernel.run_edge_ids(
            view.filter_edge_ids(self.sorted_ids),
            csr.edge_u, csr.edge_v, csr.edge_w, self.k,
        )
        new = [e for e in chosen if e not in self.union_ids]
        self.union_ids.update(new)
        stats.iteration_edge_counts.append(len(chosen))
        stats.union_edge_counts.append(len(self.union_ids))
        return new

    def run_compiled(self, p: float, stats: ConversionStats, *,
                     seeds=None, faults=None):
        """Run a batch of iterations in one compiled call.

        Give one child seed per iteration (drawn ``random() < p`` per
        unit in C), or one list of failed unit indices per iteration
        (scenario replay). Records every iteration's counts in ``stats``
        and returns the per-edge-id first-iteration array of
        :func:`~repro.compiled.oversample.oversample`.
        """
        from ..compiled.oversample import oversample

        masks = None
        if faults is not None:
            units = self.csr.num_vertices if self.kind == "vertex" else self.csr.num_edges
            masks = np.ones((len(faults), units), dtype=bool)
            for row, failed in enumerate(faults):
                masks[row, failed] = False
        _size, survivors, chosen, union_counts, first = oversample(
            self.csr.num_vertices, self.csr.directed, self.kind,
            self.sorted_ids, *self._arrays, self.k, p, self.union_mask,
            seeds=seeds, masks=masks,
        )
        stats.survivor_sizes.extend(survivors.tolist())
        stats.iteration_edge_counts.extend(chosen.tolist())
        stats.union_edge_counts.extend(union_counts.tolist())
        return first

    def pick_order(self, first) -> List[int]:
        """The ids a compiled batch added, in the order :meth:`step` returns them.

        That is by first iteration, then by position in the weight-sorted
        list (each pass picks in that order).
        """
        new = np.flatnonzero(first >= 0)
        position = np.empty_like(self.sorted_ids)
        position[self.sorted_ids] = np.arange(len(self.sorted_ids))
        return new[np.lexsort((position[new], first[new]))].tolist()

    def add_new_edges_to(self, union: BaseGraph, ids: Sequence[int]) -> None:
        """Add the edges ``ids`` to ``union``, in order.

        The adaptive driver keeps one persistent union graph and adds
        each iteration's new edges, instead of rebuilding the union for
        every validity check.
        """
        csr = self.csr
        verts = csr.verts
        for e in ids:
            union.add_edge(verts[csr.edge_u[e]], verts[csr.edge_v[e]], csr.edge_w[e])

    def union_graph(self) -> BaseGraph:
        """Materialize the union spanner (all host vertices), in edge-id order."""
        if self.resolved_method == "compiled":
            ids = self.union_mask.nonzero()[0].tolist()
        else:
            ids = sorted(self.union_ids)
        return self.csr.materialize_edge_ids(ids)


def _replay_faults(scenarios, kind: str, units: list, directed: bool) -> list:
    """Check ``scenarios`` for a ``kind`` conversion; return their failed units.

    Entry ``i`` lists the indices into ``units`` that ``scenarios[i]``
    names, so its survivor mask is the one a sampled draw would give. On
    digraphs an edge scenario names arcs, so ``(u, v)`` spares ``(v, u)``;
    on undirected hosts either orientation names the edge. Naming a
    vertex or edge the host lacks raises :class:`FaultToleranceError`.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise FaultToleranceError("scenarios must be a non-empty sequence")
    other = "edge" if kind == "vertex" else "vertex"
    index = {unit: i for i, unit in enumerate(units)}
    if kind == "edge" and not directed:
        index.update({(v, u): i for (u, v), i in list(index.items())})
    faults = []
    for sc in scenarios:
        if not isinstance(sc, FaultScenario):
            raise FaultToleranceError(
                f"scenarios must hold FaultScenario values, got {sc!r}"
            )
        if sc.kind == other:
            raise FaultToleranceError(
                f"the {kind}-fault conversion cannot replay a kind={other!r} "
                f"scenario; use the {other}-fault conversion"
            )
        failed = sc.vertices if kind == "vertex" else sc.edges
        for unit in failed:
            if unit not in index:
                raise FaultToleranceError(
                    f"scenario names the {kind} {unit!r}, which the host lacks"
                )
        faults.append([index[unit] for unit in failed])
    return faults


def _theorem21(
    graph: BaseGraph, k: float, r: int, kind: str,
    base_algorithm: BaseSpannerAlgorithm, method: str, seed: RandomLike, *,
    iterations: Optional[int] = None, schedule: str = "theorem",
    constant: float = 16.0, survival_prob: Optional[float] = None,
    scenarios: Optional[Sequence[FaultScenario]] = None,
    validity_check: Optional[Callable[[BaseGraph], bool]] = None,
    batch: int = 1, max_iterations: int = 0,
) -> ConversionResult:
    """The Theorem 2.1 loop behind both drivers and both fault kinds.

    Iteration ``i`` draws one ``random() < p`` per fault unit from the
    ``i``-th derived stream (or replays ``scenarios[i]`` as the same kind
    of mask), spans the survivor graph and adds it to the union. ``kind``
    picks only the unit list (:func:`repro.core.verify._fault_units`) and
    what a mask becomes: ``induced_subgraph`` / ``edge_subgraph`` on the
    dict path, a vertex- or edge-masked survivor on the engine path.
    ``survivor_sizes`` counts surviving units; ``r = 0`` without
    scenarios is one base run on the host and records ``n``.

    Which tier runs the iterations: a custom base algorithm, or
    ``method="dict"``, runs this loop on dict graphs, one iteration at a
    time. The default greedy base runs on :class:`_OversamplingEngine`:
    on the ``"csr"`` tier one interpreted :meth:`~_OversamplingEngine
    .step` per iteration, on the ``"compiled"`` tier one C call per run
    (per batch for the adaptive driver) that draws from the child seeds
    :func:`repro.rng.derive_seed` gives, exactly as ``derive_rng`` would.

    With ``validity_check`` (the adaptive driver) the union is checked
    after each full batch of ``batch`` iterations; the loop stops at the
    first accepted batch, or raises at the first batch boundary at or past
    ``max_iterations``.
    """
    if not k >= 1:  # NaN fails every comparison
        raise InvalidStretch(f"stretch must be >= 1, got {k}")
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    if survival_prob is not None and not 0.0 < survival_prob <= 1.0:
        raise FaultToleranceError(
            f"survival_prob must be in (0, 1], got {survival_prob}"
        )
    if method not in METHODS:
        raise FaultToleranceError(
            f"method must be one of {METHODS}, got {method!r}"
        )
    if validity_check is not None:
        if r < 1:
            raise FaultToleranceError("the adaptive variant requires r >= 1")
        if batch < 1:
            raise FaultToleranceError(f"batch must be >= 1, got {batch}")
    use_engine = base_algorithm is greedy_spanner and method != "dict"
    base_algorithm = base_algorithm_caller(base_algorithm, method)
    units = _fault_units(graph, kind)
    replay = None
    if scenarios is not None:
        replay = _replay_faults(scenarios, kind, units, graph.directed)

    union = type(graph)()
    union.add_vertices(graph.vertices())
    n = graph.num_vertices

    if r == 0 and replay is None:
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

    if replay is not None:
        alpha = len(replay)
    elif validity_check is not None:
        alpha = -(-max_iterations // batch) * batch
    else:
        alpha = resolve_iterations(n, r, iterations, schedule, constant)
    p_survive = (
        survival_prob if survival_prob is not None else survival_probability(r)
    )
    rng = ensure_rng(seed)
    stats = ConversionStats(iterations=alpha)

    # The default greedy base runs on the CSR fast path: one host
    # snapshot, masked survivors, integer edge-id union. Custom base
    # algorithms get the dict pipeline.
    engine = _OversamplingEngine(graph, k, kind, method) if use_engine else None

    compiled = engine is not None and engine.resolved_method == "compiled"
    # The adaptive driver checks the union after each batch; a full run
    # is one chunk, which the compiled tier runs in one call.
    chunk = batch if validity_check is not None else alpha
    for start in range(0, alpha, chunk):
        stop = min(start + chunk, alpha)
        if compiled:
            if replay is not None:
                first = engine.run_compiled(
                    p_survive, stats, faults=replay[start:stop]
                )
            else:
                seeds = [derive_seed(rng, i) for i in range(start, stop)]
                first = engine.run_compiled(p_survive, stats, seeds=seeds)
            if validity_check is not None:
                engine.add_new_edges_to(union, engine.pick_order(first))
        else:
            for i in range(start, stop):
                if replay is not None:
                    alive = [True] * len(units)
                    for j in replay[i]:
                        alive[j] = False
                else:
                    it_rng = derive_rng(rng, i)
                    alive = [it_rng.random() < p_survive for _ in units]
                stats.survivor_sizes.append(sum(alive))
                if engine is not None:
                    new = engine.step(alive, stats)
                    if validity_check is not None:
                        engine.add_new_edges_to(union, new)
                else:
                    kept = [unit for unit, a in zip(units, alive) if a]
                    if kind == "vertex":
                        sub = graph.induced_subgraph(kept)
                    else:
                        sub = graph.edge_subgraph(kept)
                    base = base_algorithm(sub, k)
                    stats.iteration_edge_counts.append(base.num_edges)
                    for u, v, w in base.edges():
                        union.add_edge(u, v, w)
                    stats.union_edge_counts.append(union.num_edges)
        if (
            validity_check is not None
            and stop % batch == 0
            and validity_check(union)
        ):
            stats.iterations = stop
            return ConversionResult(spanner=union, stats=stats)

    if validity_check is not None:
        raise FaultToleranceError(
            f"no valid r-fault-tolerant spanner after {max_iterations} iterations"
        )
    if engine is not None:
        union = engine.union_graph()
    return ConversionResult(spanner=union, stats=stats)


def fault_tolerant_spanner(
    graph: BaseGraph,
    k: float,
    r: int,
    base_algorithm: BaseSpannerAlgorithm = greedy_spanner,
    iterations: Optional[int] = None,
    schedule: Optional[str] = None,
    constant: float = 16.0,
    seed: RandomLike = None,
    survival_prob: Optional[float] = None,
    method: str = "auto",
    scenarios: Optional[Sequence[FaultScenario]] = None,
    *,
    kind: str = "vertex",
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
        Number of faults to tolerate, ``r >= 0``. ``r = 0`` reduces to a
        single run of the base algorithm.
    base_algorithm:
        Any function ``(graph, k) -> spanner``; defaults to the greedy
        spanner of [ADD+93], which realizes Corollary 2.2.
    iterations:
        Explicit iteration count ``α``; overrides ``schedule``.
    schedule:
        ``"theorem"`` (``r³ ln n``) or ``"light"`` (``r² ln n``), scaled by
        ``constant``. ``None`` picks ``"theorem"`` for vertex faults and
        ``"light"`` for edge faults, whose per-pair success probability
        ``(1/r)(1-1/r)^r`` is one ``1/r`` factor better than the vertex
        case's ``(1/r)²(1-1/r)^r``.
    seed:
        Randomness for the fault oversampling. Each iteration draws from an
        independently derived stream.
    survival_prob:
        Override the per-unit survival probability (default: the paper's
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
        .FaultScenario` values (kind ``"none"`` or ``kind``) to replay
        instead of sampling: the iteration count becomes
        ``len(scenarios)``, no randomness is consumed, and each
        iteration builds the base spanner of that scenario's survivor
        graph. This is how a sweep replays the exact fault draws of a
        recorded run (see :meth:`repro.session.Session.scenario`).
    kind:
        ``"vertex"`` (the paper's model) or ``"edge"``. Only the sampled
        unit changes: with ``"edge"`` each iteration puts every *edge*
        into ``J`` independently (Theorem 2.3's phrasing) and spans
        ``G`` minus those edges. A surviving edge that is a shortest
        path in ``G - F`` is then covered with probability
        ``(1/r)(1 - 1/r)^r >= 1/(2er)``.

    Returns
    -------
    :class:`ConversionResult` with the union spanner and per-iteration
    accounting.
    """
    if schedule is None:
        schedule = "light" if kind == "edge" else "theorem"
    return _theorem21(
        graph, k, r, kind, base_algorithm, method, seed,
        iterations=iterations, schedule=schedule, constant=constant,
        survival_prob=survival_prob, scenarios=scenarios,
    )


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
    return _theorem21(
        graph, k, r, "vertex", base_algorithm, method, seed,
        validity_check=validity_check, batch=batch,
        max_iterations=max_iterations,
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


def _registry_stats(result: ConversionResult, spec) -> dict:
    """A Theorem 2.1 row's report stats: the accounting, and the tier.

    A greedy base runs the oversampling engine on the host snapshot at
    every size unless ``method="dict"`` forces the reference pipeline.
    The engine's kernel is ``"compiled"`` when the C backend serves the
    request and ``"csr"`` otherwise: exactly the greedy dispatch rule's
    values, recorded as ``resolved_method`` so reports name the true path.
    """
    stats = conversion_stats_dict(result.stats)
    if spec.param("base_algorithm", "greedy") == "greedy":
        stats["resolved_method"] = _greedy_check_method(spec.method)
    return stats


@register_algorithm(
    "theorem21",
    summary="Theorem 2.1 fault-oversampling conversion (r vertex or edge faults)",
    stretch_domain="inherits the base algorithm's domain (any k >= 1 for greedy)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    csr_path=True,
    compiled_path=True,
    fault_kinds=("none", "vertex", "edge"),
)
def _registry_build(graph: BaseGraph, spec, seed):
    """Spec adapter: ``SpannerSpec -> the Theorem 2.1 loop``.

    ``spec.faults.kind`` is the conversion's ``kind``, which picks the
    fault unit and, without ``params.schedule``, the schedule
    (:func:`fault_tolerant_spanner`). ``params.until_valid`` swaps the
    fixed schedule for the adaptive stop, checked against the same fault
    kind: the E1/E3 ablations measure how many iterations suffice *in
    practice*, and sweep plans carry those points with the stopping rule
    serialized in the params (:func:`resolve_validity_check`).
    ``params.survival_prob`` reaches every variant, as
    :meth:`repro.session.Session.scenario` assumes.
    """
    kind, k, r = spec.faults.kind, spec.stretch, spec.faults.r
    base = resolve_base_algorithm(spec, seed)
    survival_prob = spec.param("survival_prob")
    if spec.param("until_valid") is not None:
        validity, knobs = resolve_validity_check(spec, graph)
        result = _theorem21(
            graph, k, r, kind, base, spec.method, seed,
            survival_prob=survival_prob, validity_check=validity,
            batch=knobs["batch"], max_iterations=knobs["max_iterations"],
        )
        stats = _registry_stats(result, spec)
        stats["until_valid"] = knobs
        return result, stats
    # Called by its module-global name: perfbench's tracer wraps it to
    # count ft-build's iterations and survivors. A fault-free spec
    # (kind "none", so r = 0) is one base run, the same for either kind.
    result = fault_tolerant_spanner(
        graph, k, r, base_algorithm=base, seed=seed, method=spec.method,
        iterations=spec.param("iterations"), schedule=spec.param("schedule"),
        constant=spec.param("constant", 16.0), survival_prob=survival_prob,
        kind="vertex" if kind == "none" else kind,
    )
    return result, _registry_stats(result, spec)


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
    ``"exhaustive"``; ``batch`` / ``max_iterations`` tune the loop. The
    check is against the spec's fault kind, so a spec without faults has
    nothing to stop on and raises :class:`InvalidSpec`. Returns the
    predicate plus the fully-resolved knobs dict.
    """
    kind = spec.faults.kind
    if kind == "none":
        raise InvalidSpec(
            f"algorithm {spec.algorithm!r} with params['until_valid'] serves "
            "fault kinds vertex/edge, got 'none'"
        )
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
    trials = knobs["trials"] if knobs["check"] == "sampled" else None
    check_seed = knobs["seed"]

    def validity(union: BaseGraph) -> bool:
        violation = _first_violation(
            union, graph, k, r, kind, trials=trials, seed=check_seed
        )
        return violation is None

    return validity, knobs
