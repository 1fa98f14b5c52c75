"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError`` from user code,
and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CompiledBackendUnavailable(ReproError):
    """``method="compiled"`` was requested but the C backend cannot serve.

    The message names the concrete obstacle (no C compiler on ``PATH``,
    a failed build, or the ``REPRO_DISABLE_COMPILED`` switch) and the
    working alternatives; ``method="auto"`` never raises this — it falls
    back to the interpreted tiers silently.
    """


class GraphError(ReproError):
    """Structural graph errors (missing vertices, duplicate edges, ...)."""


class VertexNotFound(GraphError):
    """A referenced vertex is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFound(GraphError):
    """A referenced edge is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class NegativeWeightError(GraphError):
    """An edge weight is negative where nonnegative weights are required."""


class SpannerError(ReproError):
    """Errors raised by spanner construction algorithms."""


class InvalidStretch(SpannerError):
    """The requested stretch parameter is outside the algorithm's domain."""


class FaultToleranceError(ReproError):
    """Errors from fault-tolerant constructions and verifiers."""


class LPError(ReproError):
    """Errors from the linear-programming substrate."""


class InfeasibleLP(LPError):
    """The linear program has no feasible solution."""


class UnboundedLP(LPError):
    """The linear program's objective is unbounded."""


class SolverLimit(LPError):
    """An iteration or cut-round limit was exhausted before convergence."""


class RoundingError(ReproError):
    """A randomized rounding scheme failed to produce a valid solution."""


class SpecError(ReproError):
    """Errors raised by the typed spec / session front door."""


class InvalidSpec(SpecError):
    """A :class:`repro.spec.SpannerSpec` field (or spec document) is invalid.

    The message always names the offending field and the accepted values,
    so a failing sweep shard can be fixed from the error alone.
    """


class RegistryError(SpecError):
    """Errors from the algorithm registry (duplicate or malformed entries)."""


class UnknownAlgorithm(RegistryError):
    """A spec references an algorithm name that is not registered."""

    def __init__(self, name: object, available=()) -> None:
        hint = ", ".join(sorted(available)) if available else "none registered"
        super().__init__(
            f"unknown algorithm {name!r}; available algorithms: {hint}"
        )
        self.name = name
        self.available = tuple(sorted(available))


class UnknownHostGenerator(RegistryError):
    """A host spec references a generator name that is not registered."""

    def __init__(self, name: object, available=()) -> None:
        hint = ", ".join(sorted(available)) if available else "none registered"
        super().__init__(
            f"unknown host generator {name!r}; available generators: {hint}"
        )
        self.name = name
        self.available = tuple(sorted(available))


class SweepError(ReproError):
    """A sharded sweep failed in a way naming the shard and the cause.

    Raised (as :class:`ShardQuarantined`) when a shard exhausts its
    attempts, or when a persisted shard envelope is unreadable — instead
    of surfacing a bare exit code or ``JSONDecodeError`` that says
    nothing about which shard, spec, or file is at fault.
    """


class LeaseError(SweepError):
    """A scheduler lease operation failed (claim race, missing or foreign
    lease, malformed lease file).

    Raised by :mod:`repro.sched.lease`; ordinary claim contention is *not*
    an error (claims return ``None`` when another worker holds the shard) —
    this class marks protocol violations such as releasing a lease the
    caller does not own.
    """


class ShardQuarantined(SweepError):
    """One or more shards of a scheduled sweep are quarantined.

    A shard lands in the scheduler's ``failed/`` ledger after
    ``max_attempts`` failures (recorded across workers, with the captured
    exceptions); merging such a sweep raises this error naming every
    quarantined shard instead of reporting partial coverage as missing
    indices. The ledger documents ride on :attr:`ledger`.
    """

    def __init__(self, message: str, ledger=()) -> None:
        super().__init__(message)
        self.ledger = tuple(ledger)


class DistributedError(ReproError):
    """Errors raised by the LOCAL-model simulator or distributed algorithms."""


class ProtocolViolation(DistributedError):
    """A node algorithm violated the simulator's protocol contract."""
