"""Typed problem specs: the serializable half of the public front door.

DK11's Theorem 2.1 conversion already implies the structural shape of
every pipeline in this library: *(host graph, fault model, base
algorithm, budget)*. This module makes that shape a first-class, frozen,
validated value:

* :class:`FaultModel` — what must survive (``none`` / ``vertex`` /
  ``edge`` faults, tolerance ``r``);
* :class:`SpannerSpec` — one complete build request: the algorithm name
  (resolved through :mod:`repro.registry`), the stretch budget, the fault
  model, the CSR/dict ``method`` switch, the seed, and a free-form
  ``params`` mapping for algorithm-specific knobs;
* :class:`BuildReport` — the result envelope a
  :class:`repro.session.Session` returns: artifact, size, resolved
  method/seed, RNG fingerprint, wall time, and per-iteration stats.

Specs round-trip through ``to_dict`` / ``from_dict`` (and the JSON file
helpers ``save`` / ``load``), which is what lets E-suite sweeps be
sharded: a driver writes one JSON spec per shard, and
``python -m repro run shard.json --json`` reproduces the build
byte-for-byte anywhere.

Validation is eager and actionable: every malformed field raises
:class:`repro.errors.InvalidSpec` naming the field and the accepted
values, and unknown algorithm names raise
:class:`repro.errors.UnknownAlgorithm` listing what *is* registered.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from .errors import InvalidSpec
from .graph.graph import BaseGraph
from .graph.io import graph_from_dict, graph_to_dict

#: Accepted values of the fault-model ``kind`` field.
FAULT_KINDS = ("none", "vertex", "edge")

#: Accepted values of the ``method`` dispatch field (see
#: :func:`repro.graph.csr.resolve_method`): size/backend-based auto,
#: the CSR fast path, the pinned dict reference, or the optional
#: compiled C backend (:mod:`repro.compiled`).
METHODS = ("auto", "csr", "dict", "compiled")

#: Format tag stamped into serialized spec documents.
SPEC_FORMAT = "repro-spec"
SPEC_VERSION = 1


def _require_int(name: str, value: Any, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidSpec(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class FaultModel:
    """What the spanner must survive.

    ``kind`` is ``"none"`` (plain spanner), ``"vertex"`` (the paper's
    model: up to ``r`` failed vertices) or ``"edge"`` (up to ``r`` cut
    links); ``r`` is the tolerance. ``FaultModel.none()`` is the
    canonical no-faults value.
    """

    kind: str = "none"
    r: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidSpec(
                f"faults.kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        _require_int("faults.r", self.r, minimum=0)
        if self.kind == "none" and self.r != 0:
            raise InvalidSpec(
                f"faults.kind='none' requires r=0, got r={self.r}; "
                "use kind='vertex' or 'edge' for a fault-tolerant build"
            )

    @classmethod
    def none(cls) -> "FaultModel":
        """The no-faults model (plain spanner construction)."""
        return cls("none", 0)

    @classmethod
    def vertex(cls, r: int) -> "FaultModel":
        """Tolerate up to ``r`` vertex faults (the paper's model)."""
        return cls("vertex", r)

    @classmethod
    def edge(cls, r: int) -> "FaultModel":
        """Tolerate up to ``r`` edge faults (Theorem 2.3's sampling)."""
        return cls("edge", r)

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-compatible representation."""
        return {"kind": self.kind, "r": self.r}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultModel":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        if not isinstance(data, Mapping):
            raise InvalidSpec(f"faults must be a mapping, got {data!r}")
        extra = set(data) - {"kind", "r"}
        if extra:
            raise InvalidSpec(
                f"faults document has unknown keys {sorted(extra)}; "
                "expected only 'kind' and 'r'"
            )
        return cls(kind=data.get("kind", "none"), r=data.get("r", 0))


def _frozen_params(params: Mapping[str, Any]) -> Mapping[str, Any]:
    """Validate, defensively copy, and freeze the params mapping.

    The returned read-only view keeps the spec's frozen contract honest:
    a spec cannot drift (and so change its :meth:`SpannerSpec.fingerprint`)
    between validation and execution.
    """
    if not isinstance(params, Mapping):
        raise InvalidSpec(
            f"params must be a mapping of str -> JSON value, got {params!r}"
        )
    out: Dict[str, Any] = {}
    for key, value in params.items():
        if not isinstance(key, str):
            raise InvalidSpec(f"params keys must be str, got {key!r}")
        try:
            json.dumps(value)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(
                f"params[{key!r}] is not JSON-serializable ({value!r}); "
                "specs must round-trip through JSON for sweep sharding"
            ) from exc
        out[key] = value
    return types.MappingProxyType(out)


@dataclass(frozen=True)
class SpannerSpec:
    """One complete, serializable build request.

    Parameters
    ----------
    algorithm:
        Registry name (see :func:`repro.registry.available_algorithms`).
        Resolution happens at build time, so specs can be constructed for
        algorithms registered later.
    stretch:
        The stretch budget ``k``. Algorithms with a constrained stretch
        domain (Baswana–Sen / Thorup–Zwick need odd ``2t-1``; the
        2-spanner pipelines need exactly 2) validate it at build time
        with an actionable error.
    faults:
        The :class:`FaultModel`; defaults to no faults.
    method:
        ``"auto"`` | ``"csr"`` | ``"dict"`` — the single dispatch switch
        of :func:`repro.graph.csr.resolve_method`, threaded through every
        layer of the build.
    seed:
        Deterministic seed. ``None`` lets the executing
        :class:`repro.session.Session` derive one from its own root
        stream (the derived value is recorded in the report).
    params:
        Algorithm-specific knobs (e.g. ``schedule``/``iterations`` for
        the Theorem 2.1 conversion). Must be JSON-serializable.
    graph:
        Optional host binding: ``None`` (caller passes the graph to the
        session), a ``str`` path to a graph JSON file, an in-memory
        :class:`repro.graph.graph.BaseGraph` (serialized inline), or a
        :class:`repro.hosts.HostSpec` (serialized as its spec document
        and materialized lazily by the executing session).
    """

    algorithm: str
    stretch: float = 3.0
    faults: FaultModel = field(default_factory=FaultModel.none)
    method: str = "auto"
    seed: Optional[int] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    graph: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise InvalidSpec(
                f"algorithm must be a non-empty str, got {self.algorithm!r}"
            )
        if isinstance(self.stretch, bool) or not isinstance(
            self.stretch, (int, float)
        ):
            raise InvalidSpec(f"stretch must be a number, got {self.stretch!r}")
        if not self.stretch >= 1:  # NaN fails every comparison
            raise InvalidSpec(f"stretch must be >= 1, got {self.stretch}")
        if not isinstance(self.faults, FaultModel):
            raise InvalidSpec(
                f"faults must be a FaultModel, got {self.faults!r}; "
                "use FaultModel.vertex(r) / FaultModel.edge(r) / FaultModel.none()"
            )
        if self.method not in METHODS:
            raise InvalidSpec(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.seed is not None:
            _require_int("seed", self.seed)
        object.__setattr__(self, "params", _frozen_params(self.params))
        if self.graph is not None and not isinstance(
            self.graph, (str, BaseGraph)
        ):
            from .hosts.spec import HostSpec  # deferred: hosts imports us

            if not isinstance(self.graph, HostSpec):
                raise InvalidSpec(
                    "graph must be None, a path str, a repro graph instance, "
                    f"or a HostSpec, got {self.graph!r}"
                )

    # -- convenience --------------------------------------------------

    @property
    def r(self) -> int:
        """Shorthand for ``faults.r``."""
        return self.faults.r

    def replace(self, **changes: Any) -> "SpannerSpec":
        """A copy with the given fields replaced (validated again)."""
        return dataclasses.replace(self, **changes)

    def param(self, key: str, default: Any = None) -> Any:
        """Read one algorithm-specific knob."""
        return self.params.get(key, default)

    def fingerprint(self) -> str:
        """Stable digest of the spec (graph binding excluded).

        Two specs with the same fingerprint request the same computation;
        sessions mix this with the resolved seed into the report's RNG
        fingerprint.
        """
        doc = self.to_dict(include_graph=False)
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- serialization ------------------------------------------------

    def to_dict(self, include_graph: bool = True) -> Dict[str, Any]:
        """Serialize to a plain JSON-compatible document.

        A path-bound graph is stored as the path; an in-memory graph is
        inlined via :func:`repro.graph.io.graph_to_dict`.
        """
        doc: Dict[str, Any] = {
            "format": SPEC_FORMAT,
            "version": SPEC_VERSION,
            "algorithm": self.algorithm,
            "stretch": self.stretch,
            "faults": self.faults.to_dict(),
            "method": self.method,
            "seed": self.seed,
            "params": dict(self.params),
        }
        if include_graph and self.graph is not None:
            if isinstance(self.graph, (str, BaseGraph)):
                doc["graph"] = (
                    self.graph if isinstance(self.graph, str)
                    else graph_to_dict(self.graph)
                )
            else:
                doc["graph"] = self.graph.to_dict()  # HostSpec document
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpannerSpec":
        """Inverse of :meth:`to_dict`; strict about shape and keys."""
        if not isinstance(data, Mapping):
            raise InvalidSpec(f"spec document must be a mapping, got {data!r}")
        if data.get("format", SPEC_FORMAT) != SPEC_FORMAT:
            raise InvalidSpec(
                f"not a spec document: format={data.get('format')!r} "
                f"(expected {SPEC_FORMAT!r})"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise InvalidSpec(
                f"unsupported spec version {version!r} (this library reads "
                f"version {SPEC_VERSION})"
            )
        known = {
            "format", "version", "algorithm", "stretch", "faults",
            "method", "seed", "params", "graph",
        }
        extra = set(data) - known
        if extra:
            raise InvalidSpec(
                f"spec document has unknown keys {sorted(extra)}; "
                f"expected a subset of {sorted(known)}"
            )
        if "algorithm" not in data:
            raise InvalidSpec("spec document is missing the 'algorithm' key")
        graph = data.get("graph")
        if isinstance(graph, Mapping):
            if graph.get("format") == "repro-host":
                from .hosts.spec import HostSpec  # deferred: hosts imports us

                graph = HostSpec.from_dict(graph)
            else:
                graph = graph_from_dict(dict(graph))
        return cls(
            algorithm=data["algorithm"],
            stretch=data.get("stretch", 3.0),
            faults=FaultModel.from_dict(data.get("faults", {"kind": "none", "r": 0})),
            method=data.get("method", "auto"),
            seed=data.get("seed"),
            params=data.get("params", {}),
            graph=graph,
        )

    def to_json(self, include_graph: bool = True, indent: Optional[int] = 2) -> str:
        """Canonical JSON text (sorted keys, so output is reproducible)."""
        return json.dumps(
            self.to_dict(include_graph=include_graph),
            sort_keys=True,
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "SpannerSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"spec document is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the spec as a JSON file (consumed by ``repro run``)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "SpannerSpec":
        """Read a spec JSON file written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


@dataclass
class BuildReport:
    """The result envelope of :meth:`repro.session.Session.build`.

    ``artifact`` is whatever the registered builder produced (a graph for
    plain spanner algorithms, a richer result object — e.g.
    :class:`repro.core.conversion.ConversionResult` — for pipelines);
    :attr:`spanner` uniformly extracts the spanner graph from it.
    ``stats`` carries the JSON-able per-iteration accounting builders
    expose (iteration counts, survivor sizes, LP objectives, rounds, …).
    """

    spec: SpannerSpec
    artifact: Any
    size: int
    resolved_method: str
    resolved_seed: Optional[int]
    rng_fingerprint: str
    wall_time_s: float
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def spanner(self) -> Optional[BaseGraph]:
        """The spanner graph inside :attr:`artifact`, when there is one."""
        if isinstance(self.artifact, BaseGraph):
            return self.artifact
        inner = getattr(self.artifact, "spanner", None)
        if isinstance(inner, BaseGraph):
            return inner
        return None

    @property
    def num_edges(self) -> int:
        """Alias of :attr:`size` (edge count for graphs, entries for oracles)."""
        return self.size

    def to_dict(
        self,
        include_spanner: bool = False,
        include_timing: bool = False,
    ) -> Dict[str, Any]:
        """JSON-compatible envelope.

        Timing is excluded by default so that two identical builds
        serialize to identical bytes — the property the CLI's ``--json``
        mode and the sharded-sweep acceptance checks rely on. The
        spanner's edge list is opt-in for the same reason (size).
        """
        doc: Dict[str, Any] = {
            "format": "repro-report",
            "version": SPEC_VERSION,
            "spec": self.spec.to_dict(),
            "size": self.size,
            "resolved_method": self.resolved_method,
            "resolved_seed": self.resolved_seed,
            "rng_fingerprint": self.rng_fingerprint,
            "stats": self.stats,
        }
        if include_timing:
            doc["wall_time_s"] = self.wall_time_s
        if include_spanner:
            spanner = self.spanner
            doc["spanner"] = None if spanner is None else graph_to_dict(spanner)
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BuildReport":
        """Rehydrate a serialized report (artifact = the spanner, if any)."""
        if not isinstance(data, Mapping) or data.get("format") != "repro-report":
            raise InvalidSpec(f"not a report document: {data!r}")
        spanner = data.get("spanner")
        artifact = graph_from_dict(dict(spanner)) if spanner else None
        return cls(
            spec=SpannerSpec.from_dict(data["spec"]),
            artifact=artifact,
            size=data["size"],
            resolved_method=data["resolved_method"],
            resolved_seed=data.get("resolved_seed"),
            rng_fingerprint=data["rng_fingerprint"],
            wall_time_s=data.get("wall_time_s", 0.0),
            stats=dict(data.get("stats", {})),
        )


def stretch_to_levels(spec: SpannerSpec, parameter: str = "t") -> int:
    """Map an odd ``2t - 1`` stretch budget to the level count ``t``.

    Shared by every registered algorithm whose stretch domain is the odd
    integers (Baswana–Sen, Thorup–Zwick, the TZ oracle, CLPR09, the
    distributed conversion); raises :class:`InvalidSpec` with the exact
    accepted form otherwise.
    """
    stretch = spec.stretch
    if stretch != int(stretch) or int(stretch) % 2 == 0 or stretch < 1:
        raise InvalidSpec(
            f"algorithm {spec.algorithm!r} needs an odd integer stretch "
            f"2*{parameter}-1 (3, 5, 7, ...), got {stretch!r}"
        )
    return (int(stretch) + 1) // 2


def require_stretch(spec: SpannerSpec, value: float) -> None:
    """Assert a fixed stretch domain (the 2-spanner pipelines)."""
    if spec.stretch != value:
        raise InvalidSpec(
            f"algorithm {spec.algorithm!r} has fixed stretch {value}, "
            f"got {spec.stretch!r}"
        )


def require_fault_kind(spec: SpannerSpec, *kinds: str) -> None:
    """Assert the spec's fault model is one the algorithm implements."""
    if spec.faults.kind not in kinds:
        accepted = " or ".join(repr(k) for k in kinds)
        raise InvalidSpec(
            f"algorithm {spec.algorithm!r} implements fault kind {accepted}, "
            f"got {spec.faults.kind!r}"
        )


def require_lp_solver(spec: SpannerSpec) -> None:
    """Refuse a ``params.backend`` that names an LP solver other than HiGHS.

    HiGHS (``"scipy"``) is the one LP solver; ``"auto"`` always meant it
    too, so both are accepted and change nothing.
    """
    backend = spec.param("backend", "auto")
    if backend not in ("auto", "scipy"):
        raise InvalidSpec(
            f"params.backend of {spec.algorithm!r} may only name HiGHS "
            f"('scipy'), the one LP solver; got {backend!r}"
        )


__all__ = [
    "BuildReport",
    "FAULT_KINDS",
    "FaultModel",
    "METHODS",
    "SpannerSpec",
    "require_fault_kind",
    "require_lp_solver",
    "require_stretch",
    "stretch_to_levels",
]
