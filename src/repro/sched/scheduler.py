"""Scheduler-directory state: init, scan, reclaim, quarantine, merge.

A scheduler directory is the whole coordination fabric — no broker, no
database, just files whose creation and rename are atomic on a shared
filesystem:

```
DIR/
  manifest.json   # Manifest: plan fingerprint, shard count, TTL, limits
  plan.json       # the resolved SweepPlan every worker partitions
  leases/         # shard-<i>.lease       — live claims (heartbeated)
  attempts/       # shard-<i>.attempt-<k>.json — failure records
  failed/         # shard-<i>.json        — the quarantine ledger
  reports/        # shard-<i>.json        — completed envelopes (merge input)
  tmp/            # worker scratch (error captures), invisible to merges
```

A shard's lifecycle reads directly off the directory: *pending* (no
file anywhere), *claimed* (fresh lease), *expired* (stale lease, about
to be reclaimed), *retrying* (attempt records, waiting out backoff),
*done* (envelope in ``reports/``), *quarantined* (ledger entry in
``failed/``). :func:`shard_state` classifies one shard that way for both
the supervisor and :func:`scheduler_status`, which renders every shard
read-only;
:func:`reclaim_expired_leases` performs the one mutating scan (stealing
stale leases into attempt records and quarantining shards past the
attempt cap).
"""

from __future__ import annotations

import glob
import json
import os
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import InvalidSpec, ShardQuarantined
from ..rng import RandomLike
from ..sweep import SHARD_FILE, SweepPlan, atomic_write_json
from .lease import (
    _now,
    is_expired,
    lease_age_s,
    lease_path,
    read_lease,
)
from .manifest import (
    ATTEMPT_FORMAT,
    ATTEMPTS_DIR,
    FAILED_DIR,
    LEASES_DIR,
    MANIFEST_FILE,
    PLAN_FILE,
    QUARANTINE_FORMAT,
    REPORTS_DIR,
    SCHED_VERSION,
    TMP_DIR,
    Manifest,
)

_ATTEMPT_RE = re.compile(r"shard-(\d+)\.attempt-(\d+)\.json$")


def manifest_path(sched_dir: str) -> str:
    return os.path.join(sched_dir, MANIFEST_FILE)


def plan_path(sched_dir: str) -> str:
    return os.path.join(sched_dir, PLAN_FILE)


def reports_dir(sched_dir: str) -> str:
    return os.path.join(sched_dir, REPORTS_DIR)


def leases_dir(sched_dir: str) -> str:
    return os.path.join(sched_dir, LEASES_DIR)


def attempts_dir(sched_dir: str) -> str:
    return os.path.join(sched_dir, ATTEMPTS_DIR)


def failed_dir(sched_dir: str) -> str:
    return os.path.join(sched_dir, FAILED_DIR)


def tmp_dir(sched_dir: str) -> str:
    return os.path.join(sched_dir, TMP_DIR)


def is_scheduler_dir(path: str) -> bool:
    """Whether ``path`` looks like an initialized scheduler directory."""
    return os.path.isdir(path) and os.path.isfile(manifest_path(path))


def envelope_path(sched_dir: str, index: int) -> str:
    return os.path.join(reports_dir(sched_dir), SHARD_FILE.format(index=index))


def quarantine_path(sched_dir: str, index: int) -> str:
    return os.path.join(failed_dir(sched_dir), SHARD_FILE.format(index=index))


# ---------------------------------------------------------------------------
# Initialization and loading
# ---------------------------------------------------------------------------


def init_scheduler_dir(
    sched_dir: str,
    plan: SweepPlan,
    of: Optional[int] = None,
    seed: RandomLike = 0,
    lease_ttl_s: float = 30.0,
    max_attempts: int = 3,
    backoff_base_s: float = 0.5,
    backoff_cap_s: float = 30.0,
    shard_timeout_s: Optional[float] = None,
    include_spanner: bool = False,
) -> Tuple[Manifest, SweepPlan]:
    """Create (or idempotently re-join) a scheduler directory.

    The plan's seeds are resolved first — the manifest pins the resolved
    plan's content fingerprint, so every worker partitions byte-identical
    state. Re-initializing an existing directory is allowed only when the
    manifest already there pins the same fingerprint and shard count
    (makes ``repro sweep --scheduler`` safe to re-run after a crash);
    anything else is refused loudly.
    """
    plan = plan.resolve_seeds(seed)
    if of is None:
        of = min(len(plan), 2 * os.cpu_count() if os.cpu_count() else 4) or 1
    if of < 1 or of > len(plan):
        raise InvalidSpec(
            f"scheduler shard count must satisfy 1 <= of <= plan size "
            f"({len(plan)}), got {of}"
        )
    manifest = Manifest(
        plan_fingerprint=plan.fingerprint(),
        of=of,
        name=plan.name,
        lease_ttl_s=lease_ttl_s,
        max_attempts=max_attempts,
        backoff_base_s=backoff_base_s,
        backoff_cap_s=backoff_cap_s,
        shard_timeout_s=shard_timeout_s,
        include_spanner=include_spanner,
    )
    os.makedirs(sched_dir, exist_ok=True)
    for sub in (REPORTS_DIR, LEASES_DIR, ATTEMPTS_DIR, FAILED_DIR, TMP_DIR):
        os.makedirs(os.path.join(sched_dir, sub), exist_ok=True)
    existing = manifest_path(sched_dir)
    if os.path.exists(existing):
        found = Manifest.load(existing)
        if (found.plan_fingerprint, found.of) != (
            manifest.plan_fingerprint, manifest.of,
        ):
            raise InvalidSpec(
                f"{sched_dir} already schedules plan "
                f"{found.plan_fingerprint} in {found.of} shards; refusing to "
                f"re-initialize it for plan {manifest.plan_fingerprint} in "
                f"{manifest.of} shards (use a fresh directory)"
            )
        return found, SweepPlan.load(plan_path(sched_dir))
    plan.save(plan_path(sched_dir))
    manifest.save(existing)
    return manifest, plan


def load_scheduler(sched_dir: str) -> Tuple[Manifest, SweepPlan]:
    """Read a scheduler directory's manifest + plan, cross-checked.

    The fingerprint check is what lets workers on different machines
    trust a shared directory: if ``plan.json`` does not hash to what the
    manifest pins (a divergent copy, a partial rsync), joining is refused
    instead of silently computing shards of the wrong sweep.
    """
    if not is_scheduler_dir(sched_dir):
        raise InvalidSpec(
            f"{sched_dir} is not a scheduler directory (no {MANIFEST_FILE}); "
            "initialize one with `repro sweep PLAN --scheduler DIR`"
        )
    manifest = Manifest.load(manifest_path(sched_dir))
    plan = SweepPlan.load(plan_path(sched_dir))
    if not plan.is_resolved:
        raise InvalidSpec(
            f"{plan_path(sched_dir)} is unresolved; scheduler plans must "
            "carry explicit per-spec seeds"
        )
    fingerprint = plan.fingerprint()
    if fingerprint != manifest.plan_fingerprint:
        raise InvalidSpec(
            f"{plan_path(sched_dir)} hashes to {fingerprint} but the "
            f"manifest pins {manifest.plan_fingerprint}; the plan file (or a "
            "path host it references) diverged from what this directory "
            "schedules"
        )
    return manifest, plan


# ---------------------------------------------------------------------------
# Attempt records and quarantine
# ---------------------------------------------------------------------------


def shard_attempts(sched_dir: str, index: int) -> List[Dict[str, Any]]:
    """All recorded failed attempts of one shard, in attempt order."""
    pattern = os.path.join(
        attempts_dir(sched_dir), f"shard-{index}.attempt-*.json"
    )
    records = []
    for path in glob.glob(pattern):
        match = _ATTEMPT_RE.search(path)
        if match is None:
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            # A reclaimer died between the steal-rename and the rewrite:
            # the tombstone still counts as one failed attempt.
            record = {"format": ATTEMPT_FORMAT, "shard": index, "corrupt": True}
        record.setdefault("attempt", int(match.group(2)))
        records.append(record)
    records.sort(key=lambda r: r.get("attempt", 0))
    return records


def record_attempt(
    sched_dir: str,
    index: int,
    attempt: int,
    worker: str,
    reason: str,
    error: Optional[str] = None,
    stolen_lease: Optional[Mapping[str, Any]] = None,
    timed_out: bool = False,
) -> str:
    """Write one failed-attempt record (atomic; idempotent per attempt).

    ``timed_out`` marks an attempt killed at the manifest's
    ``shard_timeout_s``; the shard's retried envelope reports it.
    """
    doc = {
        "format": ATTEMPT_FORMAT,
        "version": SCHED_VERSION,
        "shard": index,
        "attempt": attempt,
        "worker": worker,
        "reason": reason,
        "error": error,
        "timed_out": timed_out,
        "recorded_at": _now(),
    }
    if stolen_lease is not None:
        doc["lease"] = dict(stolen_lease)
    path = os.path.join(
        attempts_dir(sched_dir), f"shard-{index}.attempt-{attempt}.json"
    )
    return atomic_write_json(doc, path)


def quarantine_if_exhausted(
    sched_dir: str, manifest: Manifest, index: int
) -> Optional[Dict[str, Any]]:
    """Move a shard past the attempt cap into the ``failed/`` ledger.

    The ledger entry carries every recorded attempt — worker identity,
    reason, and the captured exception text — so a quarantined sweep is
    debuggable from the directory alone. Returns the ledger document
    when the shard was (or already is) quarantined, else ``None``.
    """
    path = quarantine_path(sched_dir, index)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    attempts = shard_attempts(sched_dir, index)
    if len(attempts) < manifest.max_attempts:
        return None
    doc = {
        "format": QUARANTINE_FORMAT,
        "version": SCHED_VERSION,
        "plan": manifest.plan_fingerprint,
        "shard": index,
        "of": manifest.of,
        "attempts": attempts,
        "workers": sorted(
            {a.get("worker") for a in attempts if a.get("worker")}
        ),
        "quarantined_at": _now(),
    }
    atomic_write_json(doc, path)
    return doc


def reclaim_expired_leases(
    sched_dir: str, manifest: Manifest, worker: str = "reclaimer"
) -> List[int]:
    """Steal every expired lease; returns the reclaimed shard indices.

    For each stale lease the steal is one atomic rename into the
    attempt record slot — concurrent reclaimers cannot double-count a
    failure. A stale lease whose shard already has an envelope (the
    worker died *between* writing the report and releasing) is a
    completed shard: the lease is simply cleaned up, no attempt recorded.
    Shards that cross ``max_attempts`` are quarantined on the spot.
    """
    reclaimed: List[int] = []
    pattern = os.path.join(leases_dir(sched_dir), "shard-*.lease")
    for path in sorted(glob.glob(pattern)):
        match = re.search(r"shard-(\d+)\.lease$", path)
        if match is None:
            continue
        index = int(match.group(1))
        record = read_lease(path)
        if record is None or not is_expired(path, record, manifest.lease_ttl_s):
            continue
        if os.path.exists(envelope_path(sched_dir, index)):
            # Done-but-unreleased: the envelope is the ground truth.
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - benign race
                pass
            continue
        attempt = record.get("attempt")
        if not isinstance(attempt, int) or attempt < 1:
            attempt = len(shard_attempts(sched_dir, index)) + 1
        tombstone = os.path.join(
            attempts_dir(sched_dir), f"shard-{index}.attempt-{attempt}.json"
        )
        try:
            os.replace(path, tombstone)
        except FileNotFoundError:
            continue  # lost the steal race; the winner records the attempt
        age = lease_age_s(tombstone, record)
        record_attempt(
            sched_dir,
            index,
            attempt,
            worker=record.get("worker", "unknown"),
            reason=(
                f"lease expired ({age:.1f}s since last heartbeat, ttl "
                f"{manifest.lease_ttl_s}s): worker crashed, hung, or lost "
                "the directory"
            ),
            error=None,
            stolen_lease=record,
        )
        quarantine_if_exhausted(sched_dir, manifest, index)
        reclaimed.append(index)
    return reclaimed


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------


def shard_state(
    sched_dir: str, manifest: Manifest, index: int
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Classify one shard from the directory alone (no plan is read).

    The first that applies wins: *quarantined* (a ledger entry in
    ``failed/``), *done* (an envelope in ``reports/``), *claimed* or
    *expired* (a lease, fresh or older than the TTL), *retrying* (failed
    attempt records), *pending* (none of these). Returns the shard's
    :func:`scheduler_status` entry and its failed-attempt records; the
    supervisor calls this for every shard on every pass, and claims a
    retrying shard once its ``retry_backoff_remaining_s`` reads 0.
    """
    attempts = shard_attempts(sched_dir, index)
    entry: Dict[str, Any] = {"shard": index, "attempts": len(attempts)}
    lease_file = lease_path(leases_dir(sched_dir), index)
    record = read_lease(lease_file)
    if os.path.exists(quarantine_path(sched_dir, index)):
        entry["state"] = "quarantined"
    elif os.path.exists(envelope_path(sched_dir, index)):
        entry["state"] = "done"
    elif record is not None:
        age = lease_age_s(lease_file, record)
        entry["lease_age_s"] = round(age, 3)
        entry["worker"] = record.get("worker")
        entry["state"] = "expired" if age > manifest.lease_ttl_s else "claimed"
    elif attempts:
        entry["state"] = "retrying"
        recorded = attempts[-1].get("recorded_at")
        if isinstance(recorded, (int, float)):
            entry["retry_backoff_remaining_s"] = round(
                max(
                    0.0,
                    recorded + manifest.backoff_s(len(attempts)) - _now(),
                ),
                3,
            )
    else:
        entry["state"] = "pending"
    return entry, attempts


def scheduler_status(sched_dir: str) -> Dict[str, Any]:
    """One read-only scan of the directory, as a JSON-ready document.

    ``shards`` holds one :func:`shard_state` entry per shard: its state
    (``pending`` / ``claimed`` / ``expired`` / ``retrying`` / ``done`` /
    ``quarantined``), lease age and owner where claimed, attempt count,
    and the next-retry backoff deadline where retrying. The quarantine
    ledger rides along in full under ``quarantined`` so downstream
    tooling (and CI) can assert on failed-shard metadata without parsing
    logs.
    """
    manifest, plan = load_scheduler(sched_dir)
    shards: List[Dict[str, Any]] = []
    counts = {
        "pending": 0, "claimed": 0, "expired": 0, "retrying": 0,
        "done": 0, "quarantined": 0,
    }
    ledger: List[Dict[str, Any]] = []
    for index in range(manifest.of):
        entry, _ = shard_state(sched_dir, manifest, index)
        if entry["state"] == "quarantined":
            with open(
                quarantine_path(sched_dir, index), "r", encoding="utf-8"
            ) as handle:
                ledger.append(json.load(handle))
        counts[entry["state"]] += 1
        shards.append(entry)
    return {
        "format": "repro-sched-status",
        "version": SCHED_VERSION,
        "name": manifest.name,
        "plan": manifest.plan_fingerprint,
        "plan_size": len(plan),
        "of": manifest.of,
        "lease_ttl_s": manifest.lease_ttl_s,
        "max_attempts": manifest.max_attempts,
        "shard_timeout_s": manifest.shard_timeout_s,
        "counts": counts,
        "shards": shards,
        "quarantined": ledger,
        "complete": counts["done"] == manifest.of,
        "degraded": counts["quarantined"] > 0,
        "finished": counts["done"] + counts["quarantined"] == manifest.of,
    }


# ---------------------------------------------------------------------------
# Merge input
# ---------------------------------------------------------------------------


def scheduler_envelope_paths(sched_dir: str) -> List[str]:
    """The envelope files a merge of this directory should consume.

    Quarantined shards make the sweep *degraded*: instead of letting the
    strict merge report their indices as mysteriously missing, raise
    :class:`repro.errors.ShardQuarantined` naming each failed shard and
    its last captured exception (full ledger on the exception object).
    """
    manifest, _ = load_scheduler(sched_dir)
    ledger = []
    for index in range(manifest.of):
        path = quarantine_path(sched_dir, index)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                ledger.append(json.load(handle))
    if ledger:
        summaries = []
        for doc in ledger:
            attempts = doc.get("attempts", [])
            last_error = next(
                (
                    a.get("error") or a.get("reason")
                    for a in reversed(attempts)
                    if a.get("error") or a.get("reason")
                ),
                "unknown failure",
            )
            summaries.append(
                f"shard {doc.get('shard')} ({len(attempts)} attempts across "
                f"workers {doc.get('workers')}): {last_error}"
            )
        raise ShardQuarantined(
            f"{sched_dir}: {len(ledger)} shard(s) are quarantined and the "
            "sweep is degraded — fix the cause and delete the failed/ "
            "entries (and their attempts/) to retry:\n  "
            + "\n  ".join(summaries),
            ledger=ledger,
        )
    return [
        envelope_path(sched_dir, index)
        for index in range(manifest.of)
        if os.path.exists(envelope_path(sched_dir, index))
    ]


__all__ = [
    "attempts_dir",
    "envelope_path",
    "failed_dir",
    "init_scheduler_dir",
    "is_scheduler_dir",
    "lease_path",
    "leases_dir",
    "load_scheduler",
    "manifest_path",
    "plan_path",
    "quarantine_if_exhausted",
    "quarantine_path",
    "reclaim_expired_leases",
    "record_attempt",
    "reports_dir",
    "scheduler_envelope_paths",
    "scheduler_status",
    "shard_attempts",
    "shard_state",
    "tmp_dir",
]
