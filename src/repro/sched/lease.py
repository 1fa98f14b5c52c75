"""Atomic lease files: how workers claim, keep, and lose shards.

The protocol is built entirely from primitives that are atomic on a
shared POSIX directory (NFS included, modulo close-to-open caching):

* **claim** — ``open(path, O_CREAT | O_EXCL)``: exactly one worker can
  create ``leases/shard-<i>.lease``; everyone else gets ``EEXIST`` and
  moves on. The content (worker id, attempt number, heartbeat timestamp)
  is fsynced before the claim counts.
* **heartbeat** — the owner periodically rewrites the lease with a
  fresh ``heartbeat_at`` through :func:`repro.sweep.atomic_write_json`
  (fsynced temp file + ``os.replace``). Readers call a lease *expired*
  when ``now - heartbeat_at > ttl`` (clocks across machines must agree
  to within the TTL — pick a TTL well above both the expected skew and
  the heartbeat interval).
* **reclaim** — ``os.replace(lease, attempts/shard-<i>.attempt-<k>.json)``:
  a rename is atomic, so when several workers notice the same expired
  lease exactly one wins the steal; the winner then owns the attempt
  record and augments it with the failure reason.
* **release** — the owner unlinks its lease after the shard's envelope is
  safely in ``reports/`` (ordering matters: envelope first, release
  second, so a crash between the two leaves a *done* shard with a stale
  lease, which reclaiming recognizes and simply cleans up).

A truncated lease file (a worker killed mid-rewrite — ``os.replace``
makes this near-impossible, but a dying NFS client can still surface it)
parses as a lease with unknown heartbeat; it becomes reclaimable once the
file's mtime is older than the TTL.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..errors import LeaseError
from ..sweep import atomic_write_json

#: File-name pattern of active lease files.
LEASE_FILE = "shard-{index}.lease"

LEASE_FORMAT = "repro-sched-lease"


def _now() -> float:
    """Wall-clock source (module-level so tests can freeze it)."""
    return time.time()


def default_worker_id() -> str:
    """A worker identity unique across machines and processes."""
    return f"{socket.gethostname()}-{os.getpid()}-{os.urandom(3).hex()}"


def lease_path(leases_dir: str, index: int) -> str:
    return os.path.join(leases_dir, LEASE_FILE.format(index=index))


@dataclass
class Lease:
    """A live claim on one shard, owned by this process."""

    path: str
    index: int
    worker: str
    attempt: int
    claimed_at: float
    heartbeat_at: float
    ttl_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": LEASE_FORMAT,
            "shard": self.index,
            "worker": self.worker,
            "attempt": self.attempt,
            "claimed_at": self.claimed_at,
            "heartbeat_at": self.heartbeat_at,
            "ttl_s": self.ttl_s,
        }

    def renew(self) -> None:
        """Refresh the heartbeat; atomic, so readers never see a torn file."""
        self.heartbeat_at = _now()
        atomic_write_json(self.to_dict(), self.path)

    def release(self) -> None:
        """Drop the claim. Only the owner may call this.

        A missing file is a :class:`repro.errors.LeaseError`: it means the
        lease expired and was reclaimed while we thought we held it — the
        caller's work may be double-executed and it should find out.
        """
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            raise LeaseError(
                f"lease for shard {self.index} vanished before release: it "
                f"expired (ttl {self.ttl_s}s) and was reclaimed by another "
                "worker; lengthen the TTL or shorten the heartbeat interval"
            ) from None


def claim_lease(
    leases_dir: str,
    index: int,
    worker: str,
    ttl_s: float,
    attempt: int = 1,
) -> Optional[Lease]:
    """Try to claim shard ``index``; return the lease, or None if held.

    The ``O_CREAT | O_EXCL`` create is the whole mutual exclusion: losing
    the race is the normal case and returns ``None``, never raises.
    """
    path = lease_path(leases_dir, index)
    now = _now()
    lease = Lease(
        path=path, index=index, worker=worker, attempt=attempt,
        claimed_at=now, heartbeat_at=now, ttl_s=ttl_s,
    )
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    return lease


def read_lease(path: str) -> Optional[Dict[str, Any]]:
    """Parse a lease file; ``None`` if it vanished (released/reclaimed).

    Unparseable content comes back as a synthetic record with no
    ``heartbeat_at`` — callers treat those as expired once the file's
    mtime is older than the TTL (see :func:`lease_age_s`).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (FileNotFoundError, NotADirectoryError):
        return None
    try:
        data = json.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError("lease is not a JSON object")
        return dict(data)
    except ValueError:
        return {"format": LEASE_FORMAT, "corrupt": True}


def lease_age_s(path: str, record: Mapping[str, Any]) -> float:
    """Seconds since the lease's last heartbeat (conservative on corrupt).

    For a readable lease this is wall-clock ``now - heartbeat_at``; for a
    corrupt one it falls back to the file mtime, so a torn write is still
    reclaimed after one TTL instead of wedging its shard forever.
    """
    heartbeat = record.get("heartbeat_at")
    if isinstance(heartbeat, (int, float)):
        return _now() - float(heartbeat)
    try:
        return _now() - os.stat(path).st_mtime
    except OSError:
        return 0.0  # vanished mid-look: someone else is handling it


def is_expired(path: str, record: Mapping[str, Any], ttl_s: float) -> bool:
    return lease_age_s(path, record) > ttl_s


__all__ = [
    "LEASE_FILE",
    "LEASE_FORMAT",
    "Lease",
    "claim_lease",
    "default_worker_id",
    "is_expired",
    "lease_age_s",
    "lease_path",
    "read_lease",
]
