"""``repro sweep``: sharded multi-process execution of spec lists.

The E-suite experiments are embarrassingly parallel over
``(host, k, r, seed)`` points; this module is the driver that exploits
it without giving up a single byte of reproducibility:

* :class:`SweepPlan` — an ordered list of :class:`repro.spec.SpannerSpec`
  values plus a table of *shared host refs* (each host graph is stored
  once, whether inline or as a path, no matter how many specs run on it),
  JSON round-tripping exactly like a spec;
* :meth:`SweepPlan.resolve_seeds` — replays the session seed-derivation
  rule (:func:`repro.session.derive_build_seed`) over the plan, so every
  spec carries the seed a sequential :meth:`repro.session.Session
  .build_many` would have resolved for it;
* :meth:`SweepPlan.shard` — a deterministic, seed-preserving,
  host-grouped partition: specs are ordered by host first-appearance and
  cut into ``of`` contiguous chunks, so each worker primes one CSR
  snapshot per host it owns;
* :func:`run_sweep` — runs a whole plan: ``workers=1`` runs in
  process; ``workers >= 2`` is a :mod:`repro.sched` run over a temporary
  scheduler directory, so each shard runs in its own child process under
  the scheduler's supervisor (forked on Linux unless another thread of
  the caller outlives a fork, spawned otherwise; optional per-shard
  wall-clock timeout, one retry, ``attempts`` and ``timed_out`` recorded
  in the envelope). Every shard yields one :class:`repro.spec.BuildReport`
  envelope (``shard-<i>.json``) with wall times kept *outside* the
  report list, and :func:`merge_shard_reports` recombines shards into
  exactly the sequential path's reports — byte-identical for the same
  plan and seeds;
* the envelope file format itself: :func:`save_shard_report` writes it
  through :func:`atomic_write_json` (the library's one durable JSON
  writer, which :mod:`repro.sched` shares), :func:`load_shard_report`
  reads it and :func:`merge_shard_reports` checks and recombines it —
  this module is the only one that knows its shape;
* :func:`emit_grid_plan` / :func:`coverage_matrix` — the plan emitter
  over a parameter grid, driven by the registry's machine-readable
  capability flags so unsupported ``(algorithm, fault kind, stretch)``
  points are refused before any worker is spawned.

The CLI surface is ``repro sweep`` / ``repro merge``
(:mod:`repro.cli`); the E1/E2/E9 benchmarks ride :func:`run_sweep`
directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import InvalidSpec, SweepError
from .graph.graph import BaseGraph
from .graph.io import graph_from_dict, graph_to_dict, load_json
from .hosts import HostSpec, get_host_generator, is_host_document
from .registry import get_algorithm
from .rng import RandomLike, ensure_rng
from .spec import FAULT_KINDS, BuildReport, FaultModel, SpannerSpec

#: Format tags stamped into serialized sweep documents.
PLAN_FORMAT = "repro-sweep-plan"
SHARD_FORMAT = "repro-sweep-shard"
SWEEP_VERSION = 1

#: File-name pattern of persisted shard envelopes.
SHARD_FILE = "shard-{index}.json"


def atomic_write_json(doc: Mapping[str, Any], path: str) -> str:
    """Write ``doc`` to ``path`` as canonical JSON, atomically and durably.

    The library's one writer of persisted JSON documents: shard
    envelopes, sweep plans, and the scheduler's manifest, lease
    heartbeats, attempt records and quarantine ledger. The text (sorted
    keys, two-space indent, trailing newline) goes to a temp file in the
    target directory — same filesystem, and a ``.tmp`` name invisible to
    the ``*.json`` globs — which is flushed and fsynced before
    ``os.replace`` moves it over ``path``. A writer killed at any instant
    leaves either the old content or the new, never a truncated
    document. Returns ``path``.
    """
    directory = os.path.dirname(path) or "."
    blob = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    return path


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse the CLI's ``i/of`` shard syntax into ``(index, of)``."""
    try:
        index_text, of_text = text.split("/", 1)
        index, of = int(index_text), int(of_text)
    except ValueError:
        raise InvalidSpec(
            f"shard must look like 'i/of' (e.g. 0/4), got {text!r}"
        ) from None
    if of < 1 or not 0 <= index < of:
        raise InvalidSpec(
            f"shard index must satisfy 0 <= i < of with of >= 1, got {text!r}"
        )
    return index, of


def host_spec_key(spec: HostSpec) -> str:
    """The canonical hosts-table key of a :class:`HostSpec` entry.

    Generator name + content fingerprint: readable in plan documents and
    stable across machines/hash seeds, so scheduler manifests built over
    spec-carried hosts never churn.
    """
    return f"{spec.generator}-{spec.fingerprint()}"


@dataclass(frozen=True)
class SweepPlan:
    """An ordered spec list with shared host refs — the unit of sharding.

    ``specs`` carry no graph bindings of their own; ``host_keys[i]`` names
    the entry of ``hosts`` that spec ``i`` runs on (a path string, an
    inline :class:`repro.graph.graph.BaseGraph`, or a
    :class:`repro.hosts.HostSpec` materialized lazily — once per plan
    instance, so per worker — on first use). ``indices`` are the
    positions in the *parent* plan (identity for a full plan), and
    ``shard_id`` / ``plan_fingerprint`` identify a shard's provenance so the
    merge layer can verify it recombines pieces of one plan.

    Construct full plans with :meth:`build` (which hoists per-spec graph
    bindings into the shared host table) rather than the raw constructor.
    """

    specs: Tuple[SpannerSpec, ...]
    host_keys: Tuple[str, ...]
    hosts: Mapping[str, Any]
    name: str = "sweep"
    indices: Optional[Tuple[int, ...]] = None
    shard_id: Optional[Tuple[int, int]] = None
    plan_fingerprint: Optional[str] = None
    plan_size: Optional[int] = None
    #: Emission metadata only (grid points :func:`emit_grid_plan` dropped
    #: under ``skip_unsupported``, with reasons). Not serialized — a
    #: loaded plan reports no skips.
    skipped: Tuple[str, ...] = field(default=(), compare=False)
    _graph_cache: Dict[str, BaseGraph] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.specs) != len(self.host_keys):
            raise InvalidSpec(
                f"plan has {len(self.specs)} specs but "
                f"{len(self.host_keys)} host keys"
            )
        for key in self.host_keys:
            if key not in self.hosts:
                raise InvalidSpec(
                    f"plan references host {key!r} but its hosts table only "
                    f"has {sorted(self.hosts)}"
                )
        for key, host in self.hosts.items():
            if not isinstance(host, (str, BaseGraph, HostSpec)):
                raise InvalidSpec(
                    f"hosts[{key!r}] must be a path str, a repro graph, or "
                    f"a HostSpec, got {host!r}"
                )
        for spec in self.specs:
            if spec.graph is not None:
                raise InvalidSpec(
                    "plan specs must not carry their own graph binding "
                    "(hosts are shared through the plan's host table); "
                    "use SweepPlan.build(...) to hoist bindings"
                )
        if self.indices is not None and len(self.indices) != len(self.specs):
            raise InvalidSpec(
                f"plan has {len(self.specs)} specs but {len(self.indices)} "
                "parent indices"
            )

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        specs: Sequence[SpannerSpec],
        graph: Optional[BaseGraph] = None,
        name: str = "sweep",
    ) -> "SweepPlan":
        """Build a full plan, hoisting graph bindings into shared hosts.

        Specs bound to the same in-memory graph instance, the same path,
        or an equal :class:`repro.hosts.HostSpec` share one host entry;
        specs with no binding fall back to the ``graph`` argument. Paths
        and host specs are kept as refs (workers load/materialize them);
        instances are serialized inline exactly once.
        """
        bindings: List[Any] = []
        for position, spec in enumerate(specs):
            bound = spec.graph if spec.graph is not None else graph
            if bound is None:
                raise InvalidSpec(
                    f"plan spec #{position} ({spec.algorithm!r}) has no host: "
                    "bind one via SpannerSpec(graph=...) or pass graph= to "
                    "SweepPlan.build"
                )
            bindings.append(bound)
        # Path and host-spec hosts claim their (content-derived) keys
        # first; inline instances then pick generated names around them,
        # so a path that happens to be called "host-0" can never collide
        # with (or be clobbered by) a generated inline key.
        hosts: Dict[str, Any] = {
            bound: bound for bound in bindings if isinstance(bound, str)
        }
        for bound in bindings:
            if isinstance(bound, HostSpec):
                hosts[host_spec_key(bound)] = bound
        keys_by_id: Dict[int, str] = {}
        counter = 0
        host_keys: List[str] = []
        for bound in bindings:
            if isinstance(bound, str):
                key = bound
            elif isinstance(bound, HostSpec):
                key = host_spec_key(bound)
            else:
                key = keys_by_id.get(id(bound))
                if key is None:
                    key = f"host-{counter}"
                    counter += 1
                    while key in hosts:
                        key = f"host-{counter}"
                        counter += 1
                    keys_by_id[id(bound)] = key
                    hosts[key] = bound
            host_keys.append(key)
        stripped = tuple(
            spec if spec.graph is None else spec.replace(graph=None)
            for spec in specs
        )
        return cls(
            specs=stripped,
            host_keys=tuple(host_keys),
            hosts=hosts,
            name=name,
        )

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def is_resolved(self) -> bool:
        """Whether every spec carries an explicit seed."""
        return all(spec.seed is not None for spec in self.specs)

    @property
    def total_size(self) -> int:
        """Spec count of the (parent) plan — what a full merge must cover."""
        return self.plan_size if self.plan_size is not None else len(self.specs)

    @property
    def parent_indices(self) -> Tuple[int, ...]:
        """Positions in the parent plan (identity for a full plan)."""
        if self.indices is not None:
            return self.indices
        return tuple(range(len(self.specs)))

    def host_graph(self, key: str) -> BaseGraph:
        """The host graph behind ``key``.

        Paths are loaded and :class:`repro.hosts.HostSpec` entries are
        materialized once per plan instance — so lazily, once per
        worker, never at plan-construction or serialization time.
        """
        host = self.hosts[key]
        if isinstance(host, BaseGraph):
            return host
        cached = self._graph_cache.get(key)
        if cached is None:
            cached = (
                host.materialize() if isinstance(host, HostSpec)
                else load_json(host)
            )
            self._graph_cache[key] = cached
        return cached

    def _host_fingerprint_doc(self, key: str) -> Dict[str, Any]:
        """What one host contributes to :meth:`fingerprint`.

        Spec-carried hosts hash by their *spec document* — no
        materialization, so scheduler manifests over generated hosts are
        computed instantly and stay stable across machines. The corpus
        loader additionally mixes in the file's content digest (the spec
        names a path; the fingerprint must pin the data behind it).
        Graph and path hosts hash by loaded graph content, as before.
        """
        host = self.hosts[key]
        if isinstance(host, HostSpec):
            doc = host.to_dict()
            if host.generator == "corpus":
                from .hosts.builtin import corpus_content_digest

                doc["content"] = corpus_content_digest(str(host.param("path")))
            return doc
        return graph_to_dict(self.host_graph(key))

    def fingerprint(self) -> str:
        """Stable digest identifying the (parent) plan *and its hosts*.

        Shards inherit their parent's fingerprint, so envelopes produced
        by different workers from the same plan agree on it — the merge
        layer's consistency check. Path hosts are hashed by their loaded
        graph *content*, not the path string: shards of nominally the
        same plan run against divergent copies of ``host.json`` on two
        machines must refuse to merge, not silently mix graphs.
        Spec-carried hosts are hashed by spec (see
        :meth:`_host_fingerprint_doc`).
        """
        if self.plan_fingerprint is not None:
            return self.plan_fingerprint
        doc = self.to_dict()
        doc.pop("indices", None)
        doc.pop("shard", None)
        doc.pop("plan", None)
        doc.pop("plan_size", None)
        doc["hosts"] = {
            key: self._host_fingerprint_doc(key) for key in self.hosts
        }
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- seed resolution ----------------------------------------------

    def resolve_seeds(self, seed: RandomLike = None) -> "SweepPlan":
        """A plan whose every spec carries an explicit seed.

        Replays exactly the sequential session rule: spec ``i`` keeps its
        own seed when set, and otherwise gets
        :func:`repro.session.derive_build_seed` at build index ``i`` from
        a root stream seeded with ``seed`` — so ``Session(seed=s)
        .build_many(plan.specs)`` and any sharding of
        ``plan.resolve_seeds(s)`` resolve identical seeds.
        """
        from .session import derive_build_seed

        if self.is_resolved:
            return self
        root = ensure_rng(seed)
        resolved = []
        for index, spec in enumerate(self.specs):
            if spec.seed is not None:
                resolved.append(spec)
            else:
                resolved.append(
                    spec.replace(seed=derive_build_seed(root, index))
                )
        return replace(self, specs=tuple(resolved))

    # -- sharding ------------------------------------------------------

    def host_grouped_order(self) -> List[int]:
        """Plan positions ordered by host first-appearance, stably.

        This is the one ordering rule of the sharder: contiguous chunks
        of this order keep each host's specs together, so a worker pays
        for at most one CSR snapshot per host it owns (plus at most one
        host split across a chunk boundary).
        """
        first_seen: Dict[str, int] = {}
        for key in self.host_keys:
            first_seen.setdefault(key, len(first_seen))
        return sorted(
            range(len(self.specs)),
            key=lambda p: (first_seen[self.host_keys[p]], p),
        )

    def shard(self, index: int, of: int) -> "SweepPlan":
        """The ``index``-th of ``of`` deterministic, seed-preserving shards.

        Requires a resolved plan (:meth:`resolve_seeds`): seeds depend on
        the *global* build order, so sharding an unresolved plan would
        silently re-derive them per worker and break merge identity.
        Shard sizes differ by at most one spec.
        """
        if of < 1 or not 0 <= index < of:
            raise InvalidSpec(
                f"shard index must satisfy 0 <= index < of, got {index}/{of}"
            )
        if not self.is_resolved:
            raise InvalidSpec(
                "cannot shard an unresolved plan (seeds would be re-derived "
                "per worker); call plan.resolve_seeds(seed) first"
            )
        order = self.host_grouped_order()
        total = len(order)
        base, extra = divmod(total, of)
        start = index * base + min(index, extra)
        size = base + (1 if index < extra else 0)
        positions = order[start:start + size]
        keys = {self.host_keys[p] for p in positions}
        parent = self.parent_indices
        return replace(
            self,
            specs=tuple(self.specs[p] for p in positions),
            host_keys=tuple(self.host_keys[p] for p in positions),
            hosts={k: v for k, v in self.hosts.items() if k in keys},
            indices=tuple(parent[p] for p in positions),
            shard_id=(index, of),
            plan_fingerprint=self.fingerprint(),
            plan_size=self.total_size,
        )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-compatible plan document (hosts stored once)."""
        doc: Dict[str, Any] = {
            "format": PLAN_FORMAT,
            "version": SWEEP_VERSION,
            "name": self.name,
            "hosts": {
                key: (
                    host if isinstance(host, str)
                    else host.to_dict() if isinstance(host, HostSpec)
                    else graph_to_dict(host)
                )
                for key, host in self.hosts.items()
            },
            "specs": [
                dict(spec.to_dict(include_graph=False), host=key)
                for spec, key in zip(self.specs, self.host_keys)
            ],
        }
        if self.indices is not None:
            doc["indices"] = list(self.indices)
        if self.shard_id is not None:
            doc["shard"] = {"index": self.shard_id[0], "of": self.shard_id[1]}
        if self.plan_fingerprint is not None:
            doc["plan"] = self.plan_fingerprint
        if self.plan_size is not None:
            doc["plan_size"] = self.plan_size
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPlan":
        """Inverse of :meth:`to_dict`; strict about shape and keys."""
        if not isinstance(data, Mapping):
            raise InvalidSpec(f"sweep plan must be a mapping, got {data!r}")
        if data.get("format") != PLAN_FORMAT:
            raise InvalidSpec(
                f"not a sweep-plan document: format={data.get('format')!r} "
                f"(expected {PLAN_FORMAT!r})"
            )
        if data.get("version", SWEEP_VERSION) != SWEEP_VERSION:
            raise InvalidSpec(
                f"unsupported sweep-plan version {data.get('version')!r} "
                f"(this library reads version {SWEEP_VERSION})"
            )
        known = {"format", "version", "name", "hosts", "specs", "indices",
                 "shard", "plan", "plan_size"}
        extra = set(data) - known
        if extra:
            raise InvalidSpec(
                f"sweep-plan document has unknown keys {sorted(extra)}; "
                f"expected a subset of {sorted(known)}"
            )
        hosts_doc = data.get("hosts", {})
        if not isinstance(hosts_doc, Mapping):
            raise InvalidSpec(f"plan hosts must be a mapping, got {hosts_doc!r}")
        hosts: Dict[str, Any] = {}
        for key, host in hosts_doc.items():
            if is_host_document(host):
                hosts[key] = HostSpec.from_dict(dict(host))
            elif isinstance(host, Mapping):
                hosts[key] = graph_from_dict(dict(host))
            else:
                hosts[key] = host
        specs: List[SpannerSpec] = []
        host_keys: List[str] = []
        for entry in data.get("specs", []):
            if not isinstance(entry, Mapping) or "host" not in entry:
                raise InvalidSpec(
                    f"each plan spec entry needs a 'host' key, got {entry!r}"
                )
            entry = dict(entry)
            host_keys.append(entry.pop("host"))
            specs.append(SpannerSpec.from_dict(entry))
        shard_doc = data.get("shard")
        shard = (
            (shard_doc["index"], shard_doc["of"]) if shard_doc is not None else None
        )
        indices = data.get("indices")
        return cls(
            specs=tuple(specs),
            host_keys=tuple(host_keys),
            hosts=hosts,
            name=data.get("name", "sweep"),
            indices=tuple(indices) if indices is not None else None,
            shard_id=shard,
            plan_fingerprint=data.get("plan"),
            plan_size=data.get("plan_size"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON text (sorted keys, so output is reproducible)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"sweep plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the plan as a JSON file (consumed by ``repro sweep``).

        Goes through :func:`atomic_write_json`, so a scheduler's
        ``plan.json`` is complete and on disk before the manifest that
        pins its fingerprint is written.
        """
        atomic_write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str) -> "SweepPlan":
        """Read a plan JSON file written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# ---------------------------------------------------------------------------
# Shard execution and envelopes
# ---------------------------------------------------------------------------


def run_shard(plan: SweepPlan, include_spanner: bool = False) -> Dict[str, Any]:
    """Execute one (shard) plan in-process and return its envelope.

    The envelope's ``reports`` list holds the deterministic
    :meth:`repro.spec.BuildReport.to_dict` documents in shard order;
    wall-clock times and the session's CSR snapshot counters live in the
    sibling ``timing`` section, so concatenating ``reports`` across
    shards is byte-identical to the sequential path. With
    ``include_spanner`` the spanner edge lists ride along (still
    deterministic — needed when the merged reports feed verification).
    """
    from .session import Session

    if not plan.is_resolved:
        raise InvalidSpec(
            "cannot run an unresolved plan shard; call plan.resolve_seeds "
            "(run_sweep does this for the whole plan before sharding)"
        )
    session = Session()
    reports = []
    wall_times = []
    for spec, key in zip(plan.specs, plan.host_keys):
        report = session.build(spec, graph=plan.host_graph(key))
        reports.append(report.to_dict(include_spanner=include_spanner))
        wall_times.append(report.wall_time_s)
    index, of = plan.shard_id if plan.shard_id is not None else (0, 1)
    return {
        "format": SHARD_FORMAT,
        "version": SWEEP_VERSION,
        "plan": plan.fingerprint(),
        "plan_name": plan.name,
        "shard": {"index": index, "of": of},
        "plan_size": plan.total_size,
        "indices": list(plan.parent_indices),
        "attempts": 1,
        "timed_out": False,
        "reports": reports,
        "timing": {
            "wall_times_s": wall_times,
            "snapshot_builds": session.snapshot_builds,
            "snapshot_hits": session.snapshot_hits,
        },
    }


def shard_report_path(reports_dir: str, index: int) -> str:
    """The canonical envelope path for shard ``index``."""
    return os.path.join(reports_dir, SHARD_FILE.format(index=index))


def save_shard_report(envelope: Dict[str, Any], reports_dir: str) -> str:
    """Persist one shard envelope under its canonical name, crash-safely.

    Written through :func:`atomic_write_json`, so a worker killed
    mid-write leaves either no ``shard-<i>.json`` or a complete one —
    never a truncated envelope for the strict merge to choke on.
    """
    os.makedirs(reports_dir, exist_ok=True)
    path = shard_report_path(reports_dir, envelope["shard"]["index"])
    return atomic_write_json(envelope, path)


def _check_envelope(envelope: Any, where: str) -> None:
    """Refuse a document that is not a shard envelope this library reads."""
    if (
        not isinstance(envelope, Mapping)
        or envelope.get("format") != SHARD_FORMAT
    ):
        raise InvalidSpec(f"{where}: not a sweep-shard envelope")
    if envelope.get("version", SWEEP_VERSION) != SWEEP_VERSION:
        raise InvalidSpec(
            f"{where}: unsupported sweep-shard version "
            f"{envelope.get('version')!r} (this library reads version "
            f"{SWEEP_VERSION})"
        )


def load_shard_report(path: str) -> Dict[str, Any]:
    """Read a shard envelope, validating its shape, format tag and version.

    Truncated or otherwise unparseable JSON — the leftovers of a killed
    *non-atomic* writer (library writers go through
    :func:`save_shard_report`, which replaces atomically) — raises a
    :class:`repro.errors.SweepError` naming the file and the fix, never
    a raw ``JSONDecodeError`` with no idea which shard is at fault.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SweepError(
            f"{path}: shard envelope is truncated or corrupt ({exc}); a "
            "worker killed mid-write through a non-atomic writer leaves "
            "exactly this — delete the file and re-run its shard (or let "
            "the scheduler reclaim it)"
        ) from exc
    _check_envelope(data, path)
    return data


def _shard_name(envelope: Any) -> str:
    """``shard i/of`` for error messages, from whatever the envelope says."""
    shard = envelope.get("shard") if isinstance(envelope, Mapping) else None
    if isinstance(shard, Mapping):
        return f"shard {shard.get('index')}/{shard.get('of')}"
    return f"shard {shard!r}"


def merge_shard_reports(
    shards: Iterable[Union[str, Mapping[str, Any]]],
) -> List[BuildReport]:
    """Recombine shard envelopes into the sequential path's report list.

    ``shards`` are envelope dicts (from :func:`run_shard`) and/or paths
    to persisted ``shard-<i>.json`` files. The merge is strict; it
    raises :class:`repro.errors.InvalidSpec`, naming the shard at fault
    where there is one, unless

    * every envelope carries this library's format tag and version, one
      report per parent-plan index and one wall time per report;
    * all carry the same plan fingerprint and plan size, and either all
      or none carry spanners (``include_spanner``);
    * their indices are disjoint and together cover ``0..total-1`` — a
      merge of half a sweep is an error, not a short table.

    Reports come back rehydrated (:meth:`repro.spec.BuildReport.from_dict`)
    in parent-plan order with the envelopes' wall times reattached, so
    downstream tables are exactly what
    :meth:`repro.session.Session.build_many` would have produced for the
    same plan and seeds.
    """
    envelopes = [
        load_shard_report(shard) if isinstance(shard, str) else shard
        for shard in shards
    ]
    if not envelopes:
        raise InvalidSpec("no shard envelopes to merge")
    for env in envelopes:
        _check_envelope(env, _shard_name(env))
    fingerprints = {env.get("plan") for env in envelopes}
    if len(fingerprints) != 1:
        raise InvalidSpec(
            f"shard envelopes come from different plans: {sorted(fingerprints)}"
        )
    by_index: Dict[int, Tuple[Mapping[str, Any], float]] = {}
    carriers: Dict[bool, str] = {}
    for env in envelopes:
        indices = env.get("indices", [])
        reports = env.get("reports", [])
        times = env.get("timing", {}).get("wall_times_s", [0.0] * len(reports))
        if not len(indices) == len(reports) == len(times):
            raise InvalidSpec(
                f"{_shard_name(env)} has {len(reports)} reports and "
                f"{len(times)} wall times for {len(indices)} indices"
            )
        for index, doc, wall in zip(indices, reports, times):
            if index in by_index:
                raise InvalidSpec(
                    f"plan index {index} appears in more than one shard "
                    "envelope; shards must be disjoint"
                )
            by_index[index] = (doc, wall)
            carriers.setdefault("spanner" in doc, _shard_name(env))
    if len(carriers) > 1:
        raise InvalidSpec(
            f"{carriers[False]} carries no spanners but {carriers[True]} "
            "does; run every shard of a sweep with include_spanner, or none"
        )
    sizes = {env.get("plan_size") for env in envelopes}
    if len(sizes) != 1:
        raise InvalidSpec(
            f"shard envelopes disagree on the plan size: {sorted(sizes)}"
        )
    (total,) = sizes
    if total is None:
        total = len(by_index)
    expected = set(range(total))
    if set(by_index) != expected:
        missing = sorted(expected - set(by_index))
        raise InvalidSpec(
            f"shard envelopes do not cover the whole plan of {total} specs "
            f"(missing indices {missing[:10]}); run or collect the missing "
            "shards before merging"
        )
    merged: List[BuildReport] = []
    for index in sorted(by_index):
        doc, wall = by_index[index]
        report = BuildReport.from_dict(doc)
        report.wall_time_s = wall
        merged.append(report)
    return merged


def run_sweep(
    plan: SweepPlan,
    workers: int = 1,
    reports_dir: Optional[str] = None,
    seed: RandomLike = 0,
    include_spanner: bool = False,
    with_envelopes: bool = False,
    shard_timeout_s: Optional[float] = None,
):
    """Execute a whole plan across ``workers`` processes and merge.

    The plan's seeds are resolved first (no-op when already explicit), so
    every partition resolves identically. ``workers=1`` runs the plan in
    this process as one shard. With ``workers >= 2`` the run is a
    :mod:`repro.sched` sweep over a temporary scheduler directory: one
    host-grouped shard per worker, each executed in its own child process
    by the scheduler's supervisor loop — forked on Linux unless another
    thread of this process outlives a fork, so the child inherits the
    imported library, and spawned otherwise. Returns the merged
    :class:`repro.spec.BuildReport` list in plan order — rehydrated from
    the envelopes even for ``workers=1``, so the sequential path
    exercises exactly the serialization surface the sharded one does.
    Envelopes are copied under ``reports_dir`` when given; with
    ``with_envelopes`` they ride along as ``(reports, envelopes)``.

    Failure handling, per shard: a child that crashes, or outlives
    ``shard_timeout_s`` wall-clock seconds and is killed, is retried once
    in a fresh child — ``run_shard`` is a pure function of the resolved
    plan, so the retry is byte-identical. Retried envelopes carry
    ``attempts`` and ``timed_out``; a shard failing both attempts raises
    :class:`repro.errors.ShardQuarantined` (a
    :class:`repro.errors.SweepError`) quoting the captured exception. For
    more attempts, backoff and cross-machine recovery, drive
    :mod:`repro.sched` directly.
    """
    if workers < 1:
        raise InvalidSpec(f"workers must be >= 1, got {workers}")
    if shard_timeout_s is not None and shard_timeout_s <= 0:
        raise InvalidSpec(
            f"shard_timeout_s must be positive, got {shard_timeout_s!r}"
        )
    plan = plan.resolve_seeds(seed)
    workers = min(workers, max(len(plan), 1))
    if workers == 1:
        envelopes = [run_shard(plan, include_spanner=include_spanner)]
    else:
        from .sched.lease import default_worker_id
        from .sched.scheduler import init_scheduler_dir, scheduler_envelope_paths
        from .sched.worker import _supervise

        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as sched_dir:
            manifest, _ = init_scheduler_dir(
                sched_dir, plan, of=workers, max_attempts=2,
                backoff_base_s=0.0, shard_timeout_s=shard_timeout_s,
                include_spanner=include_spanner,
            )
            _supervise(
                sched_dir, manifest, plan, default_worker_id(), slots=workers
            )
            envelopes = [
                load_shard_report(path)
                for path in scheduler_envelope_paths(sched_dir)
            ]
    if reports_dir is not None:
        for envelope in envelopes:
            save_shard_report(envelope, reports_dir)
    reports = merge_shard_reports(envelopes)
    if with_envelopes:
        return reports, envelopes
    return reports


# ---------------------------------------------------------------------------
# Grid emission and the capability coverage matrix
# ---------------------------------------------------------------------------


def _fault_model(kind: str, r: int) -> FaultModel:
    """The fault model of one grid point (r = 0 means no faults)."""
    if r == 0 or kind == "none":
        return FaultModel.none()
    return FaultModel(kind, r)


def _host_algorithm_reason(host: Any, info: Any) -> Optional[str]:
    """Why ``host`` cannot feed algorithm ``info``, or ``None``.

    Spec-carried hosts answer from their registered capabilities
    (:meth:`repro.hosts.HostInfo.unsupported_reason`) without being
    materialized; inline graphs answer from the instance. Path hosts
    (and ``corpus`` specs, whose directedness depends on the file) pass
    — their mismatches surface at build time through the session's
    capability check.
    """
    if isinstance(host, HostSpec):
        return get_host_generator(host.generator).unsupported_reason(info)
    if isinstance(host, BaseGraph) and host.directed and not info.directed:
        return (
            f"host is directed but algorithm {info.name!r} only serves "
            "undirected hosts"
        )
    return None


def emit_grid_plan(
    algorithms: Sequence[str],
    stretches: Sequence[float],
    rs: Sequence[int],
    hosts: Optional[Mapping[str, Any]] = None,
    fault_kind: str = "vertex",
    seeds: int = 1,
    seed_base: int = 0,
    method: str = "auto",
    params: Optional[Mapping[str, Any]] = None,
    name: str = "sweep",
    skip_unsupported: bool = False,
    topologies: Optional[Sequence[Any]] = None,
) -> SweepPlan:
    """Emit a resolved plan over the ``(host, algorithm, k, r, seed)`` grid.

    Hosts come from the explicit ``hosts`` mapping (paths / graphs /
    :class:`repro.hosts.HostSpec` values under caller-chosen keys), the
    ``topologies`` axis (``HostSpec`` values — or bare generator names
    for parameter-free families — keyed by :func:`host_spec_key`), or
    both.

    Every point is checked against the machine-readable capability flags
    of *both* registries: algorithm-side
    (:meth:`repro.registry.AlgorithmInfo.unsupported_reason` over
    ``(fault kind, r, stretch)``) and host-side
    (:meth:`repro.hosts.HostInfo.unsupported_reason` — a directed-only
    host refuses an undirected-only builder before anything is
    materialized). Out-of-domain points raise
    :class:`repro.errors.InvalidSpec` naming the point and the reason —
    or are dropped under ``skip_unsupported`` (the coverage-matrix
    behaviour), with every dropped point and its reason recorded on the
    returned plan's :attr:`SweepPlan.skipped` so an incomplete grid
    never reads as full coverage. Seeds are
    explicit (``seed_base .. seed_base + seeds - 1`` per point), so the
    emitted plan is already resolved and shards immediately.
    """
    if not algorithms:
        raise InvalidSpec("emit_grid_plan needs at least one algorithm")
    all_hosts: Dict[str, Any] = dict(hosts or {})
    for topology in topologies or ():
        spec = topology if isinstance(topology, HostSpec) else HostSpec(topology)
        get_host_generator(spec.generator).validate(spec)  # eager, pre-worker
        key = host_spec_key(spec)
        existing = all_hosts.get(key)
        if existing is not None and existing != spec:
            raise InvalidSpec(
                f"topology key {key!r} collides with an existing host entry"
            )
        all_hosts[key] = spec
    if not all_hosts:
        raise InvalidSpec(
            "emit_grid_plan needs at least one host (hosts= or topologies=)"
        )
    if fault_kind not in FAULT_KINDS:
        raise InvalidSpec(
            f"fault kind must be one of {FAULT_KINDS}, got {fault_kind!r}"
        )
    if fault_kind == "none" and any(r != 0 for r in rs):
        raise InvalidSpec(
            f"fault_kind='none' only admits r=0 grid points, got rs={list(rs)}; "
            "use fault_kind='vertex' or 'edge' for the r >= 1 axis"
        )
    if seeds < 1:
        raise InvalidSpec(f"seeds must be >= 1, got {seeds}")
    specs: List[SpannerSpec] = []
    host_keys: List[str] = []
    skipped: List[str] = []
    for host_key in all_hosts:
        for algorithm in algorithms:
            info = get_algorithm(algorithm)
            host_reason = _host_algorithm_reason(all_hosts[host_key], info)
            if host_reason is not None:
                point = f"(host={host_key}, algorithm={algorithm})"
                if skip_unsupported:
                    skipped.append(f"{point}: {host_reason}")
                    continue
                raise InvalidSpec(
                    f"grid point {point} is unsupported: {host_reason}; "
                    "drop it from the grid or pass skip_unsupported"
                )
            for stretch in stretches:
                for r in rs:
                    kind = "none" if r == 0 else fault_kind
                    reason = info.unsupported_reason(kind, r, stretch)
                    if reason is not None:
                        point = (
                            f"(host={host_key}, algorithm={algorithm}, "
                            f"stretch={stretch}, r={r})"
                        )
                        if skip_unsupported:
                            skipped.append(f"{point}: {reason}")
                            continue
                        raise InvalidSpec(
                            f"grid point {point} is unsupported: {reason}; "
                            "drop it from the grid or pass skip_unsupported"
                        )
                    for s in range(seeds):
                        specs.append(
                            SpannerSpec(
                                algorithm=algorithm,
                                stretch=stretch,
                                faults=_fault_model(kind, r),
                                method=method,
                                seed=seed_base + s,
                                params=dict(params or {}),
                            )
                        )
                        host_keys.append(host_key)
    if not specs:
        raise InvalidSpec(
            "the parameter grid produced no supported spec points"
            + (f" (skipped: {'; '.join(skipped)})" if skipped else "")
        )
    used = set(host_keys)
    return SweepPlan(
        specs=tuple(specs),
        host_keys=tuple(host_keys),
        hosts={k: v for k, v in all_hosts.items() if k in used},
        name=name,
        skipped=tuple(skipped),
    )


def coverage_matrix(
    stretches: Sequence[float] = (2, 3, 5),
    kinds: Sequence[str] = FAULT_KINDS,
    r: int = 1,
) -> List[Dict[str, Any]]:
    """The E-suite coverage matrix, generated from the registry.

    One row per registered algorithm: which ``(fault kind, stretch)``
    points it can serve (``r`` stands in for any positive tolerance; the
    ``"none"`` column uses r = 0). This is what the plan emitter consults
    — the matrix and the refusals cannot disagree.
    """
    from .registry import available_algorithms

    rows = []
    for algorithm in available_algorithms():
        info = get_algorithm(algorithm)
        cells = {}
        for kind in kinds:
            point_r = 0 if kind == "none" else r
            for stretch in stretches:
                supported = (
                    info.unsupported_reason(kind, point_r, stretch) is None
                )
                cells[f"{kind}/k={stretch:g}"] = supported
        rows.append({"algorithm": algorithm, **cells})
    return rows


__all__ = [
    "PLAN_FORMAT",
    "SHARD_FORMAT",
    "SweepPlan",
    "atomic_write_json",
    "coverage_matrix",
    "emit_grid_plan",
    "host_spec_key",
    "load_shard_report",
    "merge_shard_reports",
    "parse_shard",
    "run_shard",
    "run_sweep",
    "save_shard_report",
    "shard_report_path",
]
