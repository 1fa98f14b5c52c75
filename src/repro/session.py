"""The :class:`Session`: the executing half of the public front door.

A session owns the two pieces of shared state every pipeline needs and
every ad-hoc call site used to re-plumb by hand:

* **randomness** — specs without an explicit seed get one derived from
  the session's root stream (:func:`repro.rng.derive_rng` per build), and
  the resolved seed lands in the report, so any build is replayable as
  ``spec.replace(seed=report.resolved_seed)``;
* **CSR snapshots** — before dispatching a build whose ``method``
  resolves to the CSR path, the session primes
  :func:`repro.graph.csr.snapshot` on the host and counts cache hits, so
  :meth:`Session.build_many` over one host pays the O(n + m) snapshot
  build exactly once (the groundwork for sharded E-suite sweeps).

The contract with algorithms is the registry's builder signature
(:mod:`repro.registry`); the session adds capability checks (directed
hosts, fault tolerance), wall-time measurement, and the
:class:`repro.spec.BuildReport` envelope.

Quickstart::

    from repro import FaultModel, Session, SpannerSpec
    from repro.graph import connected_gnp_graph

    g = connected_gnp_graph(60, 0.2, seed=0)
    session = Session()
    report = session.build(
        SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(2), seed=1),
        graph=g,
    )
    assert session.verify(report, graph=g, mode="sampled")
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import InvalidSpec
from .graph.csr import maybe_snapshot, resolve_method, snapshot
from .graph.graph import BaseGraph
from .graph.io import load_json
from .hosts import HostSpec
from .registry import AlgorithmInfo, available_algorithms, get_algorithm
from .rng import RandomLike, derive_rng, ensure_rng
from .spec import BuildReport, SpannerSpec

#: Anything a build can run on: a loaded graph or a typed host spec
#: (materialized through the session's per-fingerprint cache).
HostLike = Union[BaseGraph, HostSpec]

#: Fault-set count above which ``verify(mode="auto")`` samples instead of
#: enumerating (exhaustive verification is exponential in r). The count
#: ranges over the spec's fault units: vertex fault sets for vertex
#: faults, edge fault sets for edge faults.
AUTO_EXHAUSTIVE_LIMIT = 5_000


def derive_build_seed(root, index: int) -> int:
    """The seed a session with root stream ``root`` derives at ``index``.

    This is the one seed-derivation rule of the library: sessions call it
    per unseeded build, and :meth:`repro.sweep.SweepPlan.resolve_seeds`
    replays it over a whole plan so that sharded workers — each with its
    own session — resolve exactly the seeds one sequential session would
    have. Consumes one 64-bit draw from ``root`` (callers must therefore
    invoke it only for unseeded builds, in build order).
    """
    return derive_rng(root, index).getrandbits(63)


class Session:
    """Executes :class:`repro.spec.SpannerSpec` builds with shared state.

    Parameters
    ----------
    seed:
        Root randomness for specs that do not pin their own seed. A
        session constructed with the same root seed replays the same
        derived seeds in the same build order.
    """

    def __init__(self, seed: RandomLike = None) -> None:
        self._root = ensure_rng(seed)
        self._build_index = 0
        self._graphs_by_path: Dict[str, BaseGraph] = {}
        #: Materialized HostSpec hosts, keyed by spec fingerprint — so
        #: repeated builds on one spec share one instance (and snapshot).
        self._graphs_by_host_spec: Dict[str, BaseGraph] = {}
        #: CSR snapshots built on behalf of this session's builds.
        self.snapshot_builds = 0
        #: Builds that found a still-valid snapshot already cached.
        self.snapshot_hits = 0

    # -- introspection -------------------------------------------------

    @staticmethod
    def algorithms() -> Tuple[str, ...]:
        """Delegate of :func:`repro.registry.available_algorithms`."""
        return available_algorithms()

    # -- host / seed resolution ---------------------------------------

    def resolve_graph(
        self, spec: SpannerSpec, graph: Optional[HostLike] = None
    ) -> BaseGraph:
        """The host graph a build of ``spec`` would run on.

        An explicit ``graph`` argument wins (a :class:`BaseGraph` or a
        :class:`repro.hosts.HostSpec`); otherwise the spec's binding is
        used — instances directly, paths through the session's per-path
        cache, and host specs through a per-fingerprint cache — so
        repeated builds share one loaded instance and therefore one CSR
        snapshot.
        """
        return self._resolve_graph(spec, graph)

    def _materialize_host_spec(self, spec: HostSpec) -> BaseGraph:
        key = spec.fingerprint()
        cached = self._graphs_by_host_spec.get(key)
        if cached is None:
            cached = spec.materialize()
            self._graphs_by_host_spec[key] = cached
        return cached

    def _resolve_graph(
        self, spec: SpannerSpec, graph: Optional[HostLike]
    ) -> BaseGraph:
        if graph is not None:
            if isinstance(graph, HostSpec):
                return self._materialize_host_spec(graph)
            return graph
        bound = spec.graph
        if isinstance(bound, BaseGraph):
            return bound
        if isinstance(bound, HostSpec):
            return self._materialize_host_spec(bound)
        if isinstance(bound, str):
            cached = self._graphs_by_path.get(bound)
            if cached is None:
                cached = load_json(bound)
                self._graphs_by_path[bound] = cached
            return cached
        raise InvalidSpec(
            f"spec {spec.algorithm!r} has no host graph: bind one via "
            "SpannerSpec(graph=...) (instance, JSON path, or HostSpec) "
            "or pass graph= to Session.build"
        )

    def _resolve_seed(self, spec: SpannerSpec) -> Optional[int]:
        index = self._build_index
        self._build_index += 1
        if spec.seed is not None:
            return spec.seed
        return derive_build_seed(self._root, index)

    def _prime_snapshot(self, graph: BaseGraph) -> None:
        """Build (or reuse) the host's CSR snapshot, counting cache hits.

        ``maybe_snapshot(build=False)`` is the kernel layer's own
        "already cached and still valid?" probe, so the counters track
        the cache's real behaviour without duplicating its internals.
        """
        if maybe_snapshot(graph, build=False) is not None:
            self.snapshot_hits += 1
        else:
            self.snapshot_builds += 1
        snapshot(graph)

    # -- building ------------------------------------------------------

    def build(
        self, spec: SpannerSpec, graph: Optional[HostLike] = None
    ) -> BuildReport:
        """Execute one spec and return its :class:`BuildReport`.

        Capability mismatches (directed host into an undirected-only
        algorithm, fault tolerance requested from a plain spanner
        algorithm, ...) raise :class:`repro.errors.InvalidSpec` before
        any work happens.
        """
        info: AlgorithmInfo = get_algorithm(spec.algorithm)
        host = self._resolve_graph(spec, graph)
        self._check_capabilities(info, spec, host)
        seed = self._resolve_seed(spec)
        resolved = resolve_method(
            spec.method, host.num_vertices, compiled_path=info.compiled_path
        )
        if not (info.csr_path or info.compiled_path):
            # One implementation: no size rule picks a tier for it.
            resolved = "dict"
        # Only algorithms with a CSR path consume a host snapshot; for
        # the rest (LP/rounding and LOCAL-simulator pipelines) building
        # one would be pure waste and would inflate the reuse counters.
        # The compiled tier rides the same snapshot (its kernels consume
        # the half-edge arrays), so it primes identically.
        if resolved in ("csr", "compiled") and host.num_vertices and info.csr_path:
            self._prime_snapshot(host)
        started = time.perf_counter()
        artifact, stats = info.builder(host, spec, seed)
        elapsed = time.perf_counter() - started
        stats = dict(stats)
        # A builder that dispatches differently from the generic size
        # rule (e.g. greedy's always-on interpreted kernel) reports the
        # path it actually took.
        resolved = stats.pop("resolved_method", resolved)
        report = BuildReport(
            spec=spec,
            artifact=artifact,
            size=0,
            resolved_method=resolved,
            resolved_seed=seed,
            rng_fingerprint=self._fingerprint(spec, seed),
            wall_time_s=elapsed,
            stats=stats,
        )
        spanner = report.spanner
        report.size = (
            spanner.num_edges if spanner is not None else int(stats.get("size", 0))
        )
        return report

    def serve(
        self,
        spec: SpannerSpec,
        graph: Optional[HostLike] = None,
        policy=None,
    ):
        """Start a :class:`repro.serve.SpannerService` on this session.

        The service performs its initial build (and any full-rebuild
        repairs) through *this* session, so rebuild seeds come from the
        session's root stream and snapshot counters keep meaning across
        the service's lifetime. ``policy`` is a
        :class:`repro.serve.RepairPolicy` (default: eager tiered repair).
        """
        from .serve.service import SpannerService

        host = self._resolve_graph(spec, graph)
        return SpannerService(host, spec, policy=policy, session=self)

    def build_many(
        self, specs: Iterable[SpannerSpec], graph: Optional[HostLike] = None
    ) -> List[BuildReport]:
        """Execute many specs, reusing host snapshots across builds.

        Specs sharing a host (the same bound instance, the same bound
        path, or one ``graph=`` argument) pay for at most one CSR
        snapshot between them; :attr:`snapshot_hits` counts the reuse.
        This is the sequential core the sharded sweep drivers split
        across processes — each shard is a JSON list of specs.
        """
        return [self.build(spec, graph=graph) for spec in specs]

    @staticmethod
    def _check_capabilities(
        info: AlgorithmInfo, spec: SpannerSpec, host: BaseGraph
    ) -> None:
        if host.directed and not info.directed:
            raise InvalidSpec(
                f"algorithm {info.name!r} needs an undirected host, got a "
                "directed graph"
            )
        if spec.faults.kind != "none" and not info.fault_tolerant:
            raise InvalidSpec(
                f"algorithm {info.name!r} is not fault-tolerant; either use "
                "FaultModel.none() or wrap it as the base of the 'theorem21' "
                "conversion (params={'base_algorithm': ...})"
            )
        if spec.faults.kind not in info.fault_kinds:
            raise InvalidSpec(
                f"algorithm {info.name!r} serves fault kinds "
                f"{'/'.join(info.fault_kinds)}, got {spec.faults.kind!r}"
            )

    @staticmethod
    def _fingerprint(spec: SpannerSpec, seed: Optional[int]) -> str:
        # The spec's own seed field is normalized out: the resolved seed
        # already enters the blob, so a build whose seed was derived by
        # the session and its explicit-seed replay (spec.replace(seed=
        # report.resolved_seed), e.g. a resolved sweep-plan shard) carry
        # the same fingerprint for the same computation.
        blob = f"{spec.replace(seed=None).fingerprint()}:{seed}".encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- fault scenarios -----------------------------------------------

    def scenario(
        self,
        spec: SpannerSpec,
        graph: Optional[HostLike] = None,
        iteration: int = 0,
        seed: Optional[int] = None,
    ):
        """The :class:`repro.graph.FaultScenario` a build's iteration drew.

        Replays the library's one sampling rule — ``ensure_rng(seed)``,
        then :func:`repro.rng.derive_rng` per iteration in order, then
        one ``random()`` per vertex (``kind="vertex"``) or per edge
        (``kind="edge"``) with the spec's survival probability — and
        freezes iteration ``iteration``'s draw as a replayable scenario
        with seed/iteration provenance. Feeding the result back through
        ``scenarios=`` reproduces that iteration's fault set exactly.

        ``seed`` overrides the spec's pinned seed (pass
        ``report.resolved_seed`` to replay a session-derived build);
        a spec with no resolvable seed raises :class:`InvalidSpec`.
        """
        from .core.conversion import survival_probability
        from .core.verify import _fault_units
        from .graph.scenario import FaultScenario

        if iteration < 0:
            raise InvalidSpec(f"iteration must be >= 0, got {iteration}")
        if seed is None:
            seed = spec.seed
        if seed is None:
            raise InvalidSpec(
                "scenario replay needs a seed: pin one on the spec or pass "
                "seed= (e.g. report.resolved_seed)"
            )
        kind = spec.faults.kind
        if kind == "none":
            return FaultScenario.none()
        host = self._resolve_graph(spec, graph)
        p_survive = spec.param("survival_prob")
        if p_survive is None:
            p_survive = survival_probability(spec.faults.r)
        rng = ensure_rng(seed)
        for j in range(iteration + 1):
            it_rng = derive_rng(rng, j)
        sample = (
            FaultScenario.sample_vertices if kind == "vertex"
            else FaultScenario.sample_edges
        )
        return sample(
            _fault_units(host, kind), p_survive, it_rng,
            seed=seed, iteration=iteration,
        )

    # -- verification --------------------------------------------------

    def verify(
        self,
        report: BuildReport,
        graph: Optional[HostLike] = None,
        mode: str = "auto",
        trials: int = 100,
        seed: int = 0,
    ) -> bool:
        """Check a report's spanner against its spec's promise.

        ``mode`` is ``"exhaustive"``, ``"sampled"``, ``"lemma31"`` (the
        2-spanner counting check), or ``"auto"``. Lemma 3.1 decides the
        promise of the registry rows with fixed stretch 2 (Section 3's
        setting: unit lengths, weights read as costs), so on those rows
        ``auto`` and ``lemma31`` run :func:`repro.core.is_ft_2spanner` at
        every ``r``, ``r = 0`` included. On any other row ``lemma31``
        raises :class:`~repro.errors.InvalidSpec`: those rows read
        weights as lengths, and a count of unit-length two-paths would
        accept spanners whose detours are too long. Every other check
        reads weights as lengths: without faults it is
        :func:`repro.spanners.is_spanner`, and ``auto`` enumerates while
        the fault-set count stays under :data:`AUTO_EXHAUSTIVE_LIMIT`
        and samples beyond. The count is over the spec's fault units:
        ``C(n, <= r)`` vertex sets for vertex faults, ``C(m, <= r)``
        edge sets for edge faults.
        """
        from .core import (
            count_fault_sets,
            is_fault_tolerant_spanner,
            is_ft_2spanner,
            sampled_fault_check,
        )
        from .spanners import is_spanner

        if mode not in ("auto", "exhaustive", "sampled", "lemma31"):
            raise InvalidSpec(
                "verify mode must be 'auto', 'exhaustive', 'sampled', or "
                f"'lemma31', got {mode!r}"
            )
        spec = report.spec
        spanner = report.spanner
        if spanner is None:
            raise InvalidSpec(
                f"report for {spec.algorithm!r} has no spanner graph to verify"
            )
        host = self._resolve_graph(spec, graph)
        kind, r, k = spec.faults.kind, spec.faults.r, spec.stretch
        if mode in ("auto", "lemma31") and _lemma31_decides(spec):
            return is_ft_2spanner(spanner, host, r)
        if mode == "lemma31":
            raise InvalidSpec(
                f"verify mode 'lemma31' decides only the fixed-stretch-2 "
                f"rows, which read weights as costs; {spec.algorithm!r} "
                f"reads them as lengths, so use 'auto', 'exhaustive' or "
                f"'sampled'"
            )
        if kind == "none" or r == 0:
            return is_spanner(spanner, host, k)
        if mode == "auto":
            units = host.num_vertices if kind == "vertex" else host.num_edges
            if count_fault_sets(units, r) <= AUTO_EXHAUSTIVE_LIMIT:
                mode = "exhaustive"
            else:
                mode = "sampled"
        if mode == "exhaustive":
            return is_fault_tolerant_spanner(spanner, host, k, r, kind=kind)
        return sampled_fault_check(
            spanner, host, k, r, trials=trials, seed=seed, kind=kind
        )


def _lemma31_decides(spec: SpannerSpec) -> bool:
    """Whether Lemma 3.1's counting check decides ``spec``'s promise.

    True for the registry rows with fixed stretch 2 (``ft2-approx``,
    ``dk10-baseline``, ``distributed-ft2``, ``ft2-stream``): Lemma 3.1
    holds only in Section 3's setting, unit lengths with weights read as
    costs, and those rows build for exactly that setting. A spec that
    merely asks another row for stretch 2 reads weights as lengths.
    """
    return get_algorithm(spec.algorithm).fixed_stretch == 2


def build(
    spec: SpannerSpec,
    graph: Optional[HostLike] = None,
    seed: RandomLike = None,
) -> BuildReport:
    """One-shot convenience: ``Session(seed).build(spec, graph)``."""
    return Session(seed=seed).build(spec, graph=graph)


__all__ = ["AUTO_EXHAUSTIVE_LIMIT", "Session", "build", "derive_build_seed"]
