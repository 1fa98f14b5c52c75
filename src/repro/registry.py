"""The algorithm registry: one namespace for every spanner pipeline.

Every builder in the library self-registers here via
:func:`register_algorithm` (the decorator lives at the bottom of each
algorithm module, next to the code it describes), so the registry — not
grep — is the single source of truth for what the library can build and
what each pipeline supports:

* :func:`available_algorithms` — the sorted names;
* :func:`get_algorithm` — the :class:`AlgorithmInfo` record: builder,
  capability flags (weighted? directed hosts? fault-tolerant?
  distributed? CSR fast path? cost in the LP solver?), and the stretch
  domain;
* :func:`describe_algorithms` — JSON-able capability table (the CLI's
  ``algorithms --json`` output).

A registered builder has the uniform signature
``builder(graph, spec, seed) -> (artifact, stats)``: the host graph, the
validated :class:`repro.spec.SpannerSpec`, and the resolved seed in;
the built artifact (graph or richer result object) plus a JSON-able
stats dict out. :class:`repro.session.Session` wraps the call with
timing, RNG bookkeeping, and the :class:`repro.spec.BuildReport`
envelope.

Builtin registration is lazy: the algorithm modules are imported the
first time anything asks the registry a question, which keeps
``import repro.registry`` free of import cycles.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .errors import RegistryError, UnknownAlgorithm

#: Accepted values of the machine-readable ``stretch_kind`` capability.
STRETCH_KINDS = ("any", "odd", "fixed")

#: Builder signature: (graph, spec, seed) -> (artifact, stats).
Builder = Callable[..., Tuple[Any, Dict[str, Any]]]

#: Modules whose import self-registers the builtin algorithms.
_BUILTIN_MODULES = (
    "repro.spanners.greedy",
    "repro.spanners.baswana_sen",
    "repro.spanners.thorup_zwick",
    "repro.spanners.distance_oracle",
    "repro.core.conversion",
    "repro.core.clpr",
    "repro.two_spanner.approx",
    "repro.distributed.ft_spanner",
    "repro.distributed.cluster_lp",
    "repro.serve.repair",
)

_REGISTRY: Dict[str, "AlgorithmInfo"] = {}
_builtins_loaded = False


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry record: the builder plus its capability metadata.

    ``stretch_domain`` stays the human-readable sentence shown in the
    capability table; ``fault_kinds`` / ``stretch_kind`` /
    ``fixed_stretch`` are its machine-readable counterparts, which the
    sweep plan emitter (:mod:`repro.sweep`) uses to refuse grid points an
    algorithm cannot serve before any worker process is spawned.
    """

    name: str
    builder: Builder
    summary: str
    stretch_domain: str
    weighted: bool = True
    directed: bool = False
    fault_tolerant: bool = False
    distributed: bool = False
    csr_path: bool = False
    #: Whether the builder can serve ``method="compiled"`` — i.e. its hot
    #: loop has a kernel in the optional C backend (:mod:`repro.compiled`).
    #: Capability only: whether the backend actually loads on this machine
    #: is a runtime question answered by dispatch, not the registry.
    compiled_path: bool = False
    #: Whether the builder's cost lives in :mod:`repro.lp` (it solves
    #: LPs). The sweep supervisor imports the HiGHS binding before it
    #: forks the shard children of a plan with such a builder, so they
    #: inherit it, as ``csr_path`` makes ``Session`` prime a snapshot.
    lp_path: bool = False
    #: Fault-model kinds the builder accepts (subset of spec.FAULT_KINDS).
    fault_kinds: Tuple[str, ...] = ("none",)
    #: "any" (any real k >= 1), "odd" (odd integers 2t-1), or "fixed".
    stretch_kind: str = "any"
    #: The single accepted stretch when ``stretch_kind == "fixed"``.
    fixed_stretch: Optional[float] = None

    def capabilities(self) -> Dict[str, Any]:
        """JSON-able capability row (used by CLI/introspection)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "stretch_domain": self.stretch_domain,
            "weighted": self.weighted,
            "directed": self.directed,
            "fault_tolerant": self.fault_tolerant,
            "distributed": self.distributed,
            "csr_path": self.csr_path,
            "compiled_path": self.compiled_path,
            "lp_path": self.lp_path,
            "fault_kinds": list(self.fault_kinds),
            "stretch_kind": self.stretch_kind,
            "fixed_stretch": self.fixed_stretch,
        }

    def supports_stretch(self, stretch: float) -> bool:
        """Whether ``stretch`` lies in the machine-readable domain."""
        if self.stretch_kind == "fixed":
            return stretch == self.fixed_stretch
        if self.stretch_kind == "odd":
            return stretch >= 1 and stretch == int(stretch) and int(stretch) % 2 == 1
        return stretch >= 1

    def unsupported_reason(
        self, fault_kind: str, r: int, stretch: float
    ) -> Optional[str]:
        """Why a ``(fault_kind, r, stretch)`` point cannot be served.

        Returns ``None`` when the point is in-domain. This is the single
        predicate behind the sweep emitter's refusals and the E-suite
        coverage matrix, so both always agree with the registry.
        """
        if fault_kind not in self.fault_kinds:
            accepted = "/".join(self.fault_kinds)
            return (
                f"{self.name!r} serves fault kinds {accepted}, "
                f"not {fault_kind!r}"
            )
        if fault_kind != "none" and r < 1:
            return f"fault kind {fault_kind!r} needs r >= 1, got r={r}"
        if not self.supports_stretch(stretch):
            return (
                f"{self.name!r} needs stretch in its domain "
                f"({self.stretch_domain}), got {stretch!r}"
            )
        return None


def register_algorithm(
    name: str,
    *,
    summary: str,
    stretch_domain: str,
    weighted: bool = True,
    directed: bool = False,
    fault_tolerant: bool = False,
    distributed: bool = False,
    csr_path: bool = False,
    compiled_path: bool = False,
    lp_path: bool = False,
    fault_kinds: Optional[Tuple[str, ...]] = None,
    stretch_kind: str = "any",
    fixed_stretch: Optional[float] = None,
) -> Callable[[Builder], Builder]:
    """Decorator: register ``builder(graph, spec, seed)`` under ``name``.

    ``fault_kinds`` defaults from the ``fault_tolerant`` flag —
    ``("none", "vertex")`` for fault-tolerant builders, ``("none",)``
    otherwise — and must stay consistent with it; the machine-readable
    stretch fields must describe a non-empty domain. Raises
    :class:`repro.errors.RegistryError` on duplicate names — two modules
    silently fighting over one name is always a bug.
    """
    if not isinstance(name, str) or not name:
        raise RegistryError(f"algorithm name must be a non-empty str, got {name!r}")
    if fault_kinds is None:
        fault_kinds = ("none", "vertex") if fault_tolerant else ("none",)
    fault_kinds = tuple(fault_kinds)
    unknown = [k for k in fault_kinds if k not in ("none", "vertex", "edge")]
    if unknown or not fault_kinds:
        raise RegistryError(
            f"algorithm {name!r}: fault_kinds must be a non-empty subset of "
            f"('none', 'vertex', 'edge'), got {fault_kinds!r}"
        )
    if fault_tolerant != any(kind != "none" for kind in fault_kinds):
        raise RegistryError(
            f"algorithm {name!r}: fault_kinds {fault_kinds!r} contradict "
            f"fault_tolerant={fault_tolerant}"
        )
    if stretch_kind not in STRETCH_KINDS:
        raise RegistryError(
            f"algorithm {name!r}: stretch_kind must be one of {STRETCH_KINDS}, "
            f"got {stretch_kind!r}"
        )
    if (stretch_kind == "fixed") != (fixed_stretch is not None):
        raise RegistryError(
            f"algorithm {name!r}: stretch_kind='fixed' and fixed_stretch must "
            f"be given together, got {stretch_kind!r} / {fixed_stretch!r}"
        )

    def decorator(builder: Builder) -> Builder:
        if name in _REGISTRY:
            raise RegistryError(
                f"algorithm {name!r} is already registered "
                f"(by {_REGISTRY[name].builder.__module__})"
            )
        _REGISTRY[name] = AlgorithmInfo(
            name=name,
            builder=builder,
            summary=summary,
            stretch_domain=stretch_domain,
            weighted=weighted,
            directed=directed,
            fault_tolerant=fault_tolerant,
            distributed=distributed,
            csr_path=csr_path,
            compiled_path=compiled_path,
            lp_path=lp_path,
            fault_kinds=fault_kinds,
            stretch_kind=stretch_kind,
            fixed_stretch=fixed_stretch,
        )
        return builder

    return decorator


def _ensure_builtins() -> None:
    """Import the algorithm modules once so their hooks have run.

    The flag is raised *before* the loop so a registry query made while
    the builtin modules are themselves importing short-circuits instead
    of recursing — but a failed import lowers it again, so the next
    query retries rather than silently serving a half-populated registry.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
    except BaseException:
        _builtins_loaded = False
        raise


def available_algorithms() -> Tuple[str, ...]:
    """Sorted names of every registered algorithm."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up one algorithm; unknown names list what is available."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithm(name, available=_REGISTRY) from None


def describe_algorithms() -> Tuple[Dict[str, Any], ...]:
    """Capability rows for every registered algorithm, sorted by name."""
    _ensure_builtins()
    return tuple(_REGISTRY[name].capabilities() for name in sorted(_REGISTRY))


__all__ = [
    "AlgorithmInfo",
    "STRETCH_KINDS",
    "available_algorithms",
    "describe_algorithms",
    "get_algorithm",
    "register_algorithm",
]
