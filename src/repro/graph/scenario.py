"""Typed fault scenarios: the serializable "what failed" half of a view.

Every per-survivor loop in the library — the Theorem 2.1 oversampling
conversion for either fault kind, the Corollary 2.4 LOCAL pipeline, and
the CLPR09 union-over-fault-sets baseline — used to carry its fault set as
an ad-hoc ``alive`` / ``faults`` / ``survivors`` parameter. This module
makes the fault set a first-class frozen value:

* :class:`FaultScenario` — one concrete failure event: the kind
  (``none`` / ``vertex`` / ``edge``), the failed vertices or edges, and
  optional seed/iteration provenance recording *which* RNG draw of a
  sampling loop produced it;
* :func:`scenario_fault_sets` — the normalizer the verifier entry points
  use, for either fault kind, so callers may pass either raw fault
  tuples or typed scenarios.

Scenarios round-trip strictly through ``to_dict`` / ``from_dict`` (and
``to_json`` / ``from_json``) exactly like :class:`repro.spec.SpannerSpec`
and :class:`repro.hosts.HostSpec`: a format tag, a version, and rejection
of unknown keys — so a sweep can persist the exact fault draw that broke
a build and replay it anywhere.

A scenario executes as a survivor mask: the Theorem 2.1 loop
(``scenarios=``) replays each one as the mask a sampled draw would give,
which the kernels read through a zero-copy
:class:`repro.graph.csr.SurvivorView`; CLPR09 and the verifiers take its
fault set through the normalizer above.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import InvalidSpec

#: Accepted values of the scenario ``kind`` field (mirrors
#: ``repro.spec.FAULT_KINDS``).
SCENARIO_KINDS = ("none", "vertex", "edge")

#: Format tag stamped into serialized scenario documents.
SCENARIO_FORMAT = "repro-fault-scenario"
SCENARIO_VERSION = 1


def _require_opt_int(name: str, value: Any, minimum: Optional[int] = None):
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{name} must be an int or None, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidSpec(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class FaultScenario:
    """One concrete failure event ``J`` (the paper's ``G \\ J`` fault set).

    Parameters
    ----------
    kind:
        ``"none"`` (nothing failed), ``"vertex"`` (the paper's model:
        ``vertices`` lists the failed vertices), or ``"edge"``
        (``edges`` lists the cut links as ``(u, v)`` pairs).
    vertices:
        The failed vertices (``kind="vertex"`` only). May be empty — an
        empty vertex scenario is a sampled iteration where every vertex
        happened to survive.
    edges:
        The failed edges as 2-tuples (``kind="edge"`` only). Pair
        orientation is irrelevant on undirected hosts.
    seed / iteration:
        Optional provenance: the sampling seed and loop index whose RNG
        draw produced this scenario (see :meth:`sample_vertices` and
        :meth:`repro.session.Session.scenario`). Recorded for replay,
        not consulted by any kernel.
    """

    kind: str = "none"
    vertices: Tuple = ()
    edges: Tuple = ()
    seed: Optional[int] = None
    iteration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise InvalidSpec(
                f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "vertices", tuple(self.vertices))
        edges = []
        for pair in self.edges:
            pair = tuple(pair)
            if len(pair) != 2:
                raise InvalidSpec(
                    f"scenario edges must be (u, v) pairs, got {pair!r}"
                )
            edges.append(pair)
        object.__setattr__(self, "edges", tuple(edges))
        if self.kind != "vertex" and self.vertices:
            raise InvalidSpec(
                f"scenario kind={self.kind!r} cannot carry failed vertices; "
                "use FaultScenario.vertex(...)"
            )
        if self.kind != "edge" and self.edges:
            raise InvalidSpec(
                f"scenario kind={self.kind!r} cannot carry failed edges; "
                "use FaultScenario.edge(...)"
            )
        _require_opt_int("scenario seed", self.seed)
        _require_opt_int("scenario iteration", self.iteration, minimum=0)

    # -- constructors --------------------------------------------------

    @classmethod
    def none(cls) -> "FaultScenario":
        """The null scenario: every vertex and edge survives."""
        return cls("none")

    @classmethod
    def vertex(
        cls, faults: Iterable, *, seed: Optional[int] = None,
        iteration: Optional[int] = None,
    ) -> "FaultScenario":
        """Failed-vertex scenario (the paper's fault model)."""
        return cls("vertex", vertices=tuple(faults), seed=seed,
                   iteration=iteration)

    @classmethod
    def edge(
        cls, faults: Iterable, *, seed: Optional[int] = None,
        iteration: Optional[int] = None,
    ) -> "FaultScenario":
        """Failed-edge scenario (Theorem 2.3's sampling model)."""
        return cls("edge", edges=tuple(faults), seed=seed,
                   iteration=iteration)

    @classmethod
    def sample_vertices(
        cls, vertices: Iterable, p_survive: float, rng, *,
        seed: Optional[int] = None, iteration: Optional[int] = None,
    ) -> "FaultScenario":
        """One oversampling draw: each vertex survives with ``p_survive``.

        Consumes exactly one ``rng.random()`` per vertex, in iteration
        order — the same stream the Theorem 2.1 conversion loop draws, so
        a scenario sampled here from iteration ``i``'s derived stream is
        *the* fault set that iteration used.
        """
        faulty = [v for v in vertices if not (rng.random() < p_survive)]
        return cls("vertex", vertices=tuple(faulty), seed=seed,
                   iteration=iteration)

    @classmethod
    def sample_edges(
        cls, edges: Iterable[Tuple], p_survive: float, rng, *,
        seed: Optional[int] = None, iteration: Optional[int] = None,
    ) -> "FaultScenario":
        """One edge-oversampling draw (one ``rng.random()`` per edge)."""
        faulty = [e for e in edges if not (rng.random() < p_survive)]
        return cls("edge", edges=tuple(faulty), seed=seed,
                   iteration=iteration)

    # -- convenience ---------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when nothing failed (masking is a no-op)."""
        return not self.vertices and not self.edges

    def fault_set(self) -> frozenset:
        """The failed vertices as a frozenset (``kind="vertex"``)."""
        return frozenset(self.vertices)

    def edge_fault_set(self) -> frozenset:
        """The failed edge pairs as given (``kind="edge"``)."""
        return frozenset(self.edges)

    def fingerprint(self) -> str:
        """Stable digest of the scenario document."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-compatible document (strict inverse of :meth:`from_dict`)."""
        doc: Dict[str, Any] = {
            "format": SCENARIO_FORMAT,
            "version": SCENARIO_VERSION,
            "kind": self.kind,
            "vertices": list(self.vertices),
            "edges": [list(pair) for pair in self.edges],
            "seed": self.seed,
            "iteration": self.iteration,
        }
        try:
            json.dumps(doc)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(
                "scenario vertices/edges must be JSON-serializable to "
                f"round-trip (got {self.vertices!r} / {self.edges!r})"
            ) from exc
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultScenario":
        """Inverse of :meth:`to_dict`; unknown keys and bad tags are rejected."""
        if not isinstance(data, Mapping):
            raise InvalidSpec(f"scenario document must be a mapping, got {data!r}")
        known = {"format", "version", "kind", "vertices", "edges", "seed",
                 "iteration"}
        extra = set(data) - known
        if extra:
            raise InvalidSpec(
                f"scenario document has unknown keys {sorted(extra)}"
            )
        fmt = data.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise InvalidSpec(
                f"scenario document format must be {SCENARIO_FORMAT!r}, "
                f"got {fmt!r}"
            )
        version = data.get("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise InvalidSpec(
                f"scenario document version {version!r} is not supported "
                f"(expected {SCENARIO_VERSION})"
            )
        return cls(
            kind=data.get("kind", "none"),
            vertices=tuple(data.get("vertices", ())),
            edges=tuple(tuple(pair) for pair in data.get("edges", ())),
            seed=data.get("seed"),
            iteration=data.get("iteration"),
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultScenario":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InvalidSpec(f"scenario document is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def scenario_fault_sets(fault_sets: Iterable, kind: str = "vertex") -> List[Tuple]:
    """Normalize fault sets of ``kind``: raw tuples and scenarios both accepted.

    The verifier entry points iterate candidate fault sets; each element
    may be a plain iterable of vertices (``kind="vertex"``) or of
    ``(u, v)`` pairs (``kind="edge"``), or a :class:`FaultScenario` of
    kind ``none`` or ``kind``.
    """
    if kind not in ("vertex", "edge"):
        raise InvalidSpec(f"fault kind must be 'vertex' or 'edge', got {kind!r}")
    other = "edge" if kind == "vertex" else "vertex"
    out: List[Tuple] = []
    for fs in fault_sets:
        if isinstance(fs, FaultScenario):
            if fs.kind == other:
                raise InvalidSpec(
                    f"expected a {kind} fault scenario, got kind={other!r}; "
                    f"verify with kind={other!r}"
                )
            out.append(fs.vertices if kind == "vertex" else fs.edges)
        elif kind == "vertex":
            out.append(tuple(fs))
        else:
            out.append(tuple(tuple(pair) for pair in fs))
    return out


__all__ = [
    "FaultScenario",
    "SCENARIO_FORMAT",
    "SCENARIO_KINDS",
    "SCENARIO_VERSION",
    "scenario_fault_sets",
]
