"""The scheduler :class:`Manifest`: what one shared directory executes.

A manifest pins a scheduled sweep the way a shard envelope pins its plan:
strict JSON with a format tag, the parent plan's content fingerprint, the
shard count, and the failure-handling knobs (lease TTL, attempt cap,
backoff, per-shard wall-clock timeout). Workers joining from any machine
read ``manifest.json`` + ``plan.json`` out of the directory and refuse to
run if the plan on disk does not hash to the fingerprint the manifest
pins — two machines with divergent copies of the sweep can never mix
their shards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

from ..errors import InvalidSpec
from ..sweep import atomic_write_json

#: Format tags of the scheduler's on-disk documents.
MANIFEST_FORMAT = "repro-sched-manifest"
ATTEMPT_FORMAT = "repro-sched-attempt"
QUARANTINE_FORMAT = "repro-sched-quarantine"
SCHED_VERSION = 1

#: File and subdirectory names inside a scheduler directory.
MANIFEST_FILE = "manifest.json"
PLAN_FILE = "plan.json"
REPORTS_DIR = "reports"
LEASES_DIR = "leases"
ATTEMPTS_DIR = "attempts"
FAILED_DIR = "failed"
TMP_DIR = "tmp"


@dataclass(frozen=True)
class Manifest:
    """Immutable description of one scheduled sweep.

    ``plan_fingerprint`` is the content fingerprint of the resolved
    :class:`repro.sweep.SweepPlan` stored next to the manifest; ``of`` is
    the fixed shard count every worker partitions that plan into. The
    remaining fields tune failure handling:

    * ``lease_ttl_s`` — a lease whose heartbeat is older than this is
      considered abandoned (crashed or hung worker) and reclaimable;
    * ``max_attempts`` — after this many failed attempts a shard is
      quarantined into the ``failed/`` ledger instead of retried;
    * ``backoff_base_s`` / ``backoff_cap_s`` — capped exponential backoff
      between retries of one shard (``base * 2**(attempt-1)``, capped);
    * ``shard_timeout_s`` — optional wall-clock budget per shard; a child
      exceeding it is killed and the attempt recorded as timed out;
    * ``include_spanner`` — forwarded to :func:`repro.sweep.run_shard`.
    """

    plan_fingerprint: str
    of: int
    name: str = "sweep"
    lease_ttl_s: float = 30.0
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    shard_timeout_s: Optional[float] = None
    include_spanner: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.plan_fingerprint, str) or not self.plan_fingerprint:
            raise InvalidSpec(
                f"manifest needs a plan fingerprint string, got "
                f"{self.plan_fingerprint!r}"
            )
        if not isinstance(self.of, int) or self.of < 1:
            raise InvalidSpec(f"manifest shard count must be >= 1, got {self.of!r}")
        if self.lease_ttl_s <= 0:
            raise InvalidSpec(
                f"lease_ttl_s must be positive, got {self.lease_ttl_s!r}"
            )
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise InvalidSpec(
                f"max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise InvalidSpec("backoff values must be nonnegative")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise InvalidSpec(
                f"shard_timeout_s must be positive or None, got "
                f"{self.shard_timeout_s!r}"
            )

    def backoff_s(self, attempts: int) -> float:
        """Delay before retrying a shard that has failed ``attempts`` times."""
        if attempts <= 0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempts - 1))

    def replace(self, **changes: Any) -> "Manifest":
        return replace(self, **changes)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": SCHED_VERSION,
            "name": self.name,
            "plan": self.plan_fingerprint,
            "of": self.of,
            "lease_ttl_s": self.lease_ttl_s,
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "shard_timeout_s": self.shard_timeout_s,
            "include_spanner": self.include_spanner,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Manifest":
        if not isinstance(data, Mapping):
            raise InvalidSpec(f"manifest must be a mapping, got {data!r}")
        if data.get("format") != MANIFEST_FORMAT:
            raise InvalidSpec(
                f"not a scheduler manifest: format={data.get('format')!r} "
                f"(expected {MANIFEST_FORMAT!r})"
            )
        if data.get("version", SCHED_VERSION) != SCHED_VERSION:
            raise InvalidSpec(
                f"unsupported scheduler manifest version "
                f"{data.get('version')!r} (this library reads version "
                f"{SCHED_VERSION})"
            )
        known = {
            "format", "version", "name", "plan", "of", "lease_ttl_s",
            "max_attempts", "backoff_base_s", "backoff_cap_s",
            "shard_timeout_s", "include_spanner",
        }
        extra = set(data) - known
        if extra:
            raise InvalidSpec(
                f"scheduler manifest has unknown keys {sorted(extra)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            plan_fingerprint=data.get("plan"),
            of=data.get("of"),
            name=data.get("name", "sweep"),
            lease_ttl_s=float(data.get("lease_ttl_s", 30.0)),
            max_attempts=data.get("max_attempts", 3),
            backoff_base_s=float(data.get("backoff_base_s", 0.5)),
            backoff_cap_s=float(data.get("backoff_cap_s", 30.0)),
            shard_timeout_s=(
                None if data.get("shard_timeout_s") is None
                else float(data["shard_timeout_s"])
            ),
            include_spanner=bool(data.get("include_spanner", False)),
        )

    def save(self, path: str) -> None:
        atomic_write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str) -> "Manifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(
                f"{path}: scheduler manifest is not valid JSON ({exc}); "
                "the directory may not be a scheduler directory, or the "
                "manifest was hand-edited"
            ) from exc
        return cls.from_dict(data)


__all__ = [
    "ATTEMPT_FORMAT",
    "ATTEMPTS_DIR",
    "FAILED_DIR",
    "LEASES_DIR",
    "MANIFEST_FILE",
    "MANIFEST_FORMAT",
    "Manifest",
    "PLAN_FILE",
    "QUARANTINE_FORMAT",
    "REPORTS_DIR",
    "SCHED_VERSION",
    "TMP_DIR",
]
