"""Fault-tolerant cross-machine sweep scheduling over a shared directory.

``repro.sweep`` made sharded sweeps *deterministic*; this package makes
them *survivable*. A scheduler directory (any filesystem shared by the
participating machines) carries a fingerprint-pinned
:class:`~repro.sched.manifest.Manifest` plus the resolved plan; workers
claim shards through atomic ``O_EXCL`` lease files, renew heartbeats
while a child process executes the shard, and persist the ordinary
atomic shard envelopes before releasing. A worker that crashes or hangs
simply stops heartbeating: any surviving worker reclaims the expired
lease into a failure record and retries the shard under capped
exponential backoff, and a shard that keeps failing is quarantined into
a ``failed/`` ledger (with its captured exceptions) so the sweep
finishes degraded instead of wedging. Because every shard is a pure
function of the resolved plan, the recovered sweep's merge is
byte-identical to the fault-free sequential run — the same discipline
:func:`repro.sweep.merge_shard_reports` already enforces. Every document
the directory holds is written through
:func:`repro.sweep.atomic_write_json` (re-exported here), apart from
the ``O_EXCL`` create that claims a lease.

Entry points: ``repro sweep PLAN --scheduler DIR --workers N`` (drive on
one host), ``repro sweep-worker DIR`` (join from another machine),
``repro sweep --status DIR`` (live state + quarantine ledger), and
``repro merge DIR`` (scheduler-aware strict merge).
"""

from ..sweep import atomic_write_json
from .lease import Lease, claim_lease, default_worker_id, read_lease
from .manifest import Manifest
from .scheduler import (
    init_scheduler_dir,
    is_scheduler_dir,
    load_scheduler,
    reclaim_expired_leases,
    scheduler_envelope_paths,
    scheduler_status,
    shard_attempts,
)
from .worker import run_scheduled_sweep, run_worker

__all__ = [
    "Lease",
    "Manifest",
    "atomic_write_json",
    "claim_lease",
    "default_worker_id",
    "init_scheduler_dir",
    "is_scheduler_dir",
    "load_scheduler",
    "read_lease",
    "reclaim_expired_leases",
    "run_scheduled_sweep",
    "run_worker",
    "scheduler_envelope_paths",
    "scheduler_status",
    "shard_attempts",
]
