"""The scheduler worker loop: the library's one process supervisor.

:func:`_supervise` keeps up to N **shard children** running at once,
each under a lease claimed from the scheduler directory, and waits on
their sentinels. :func:`_start_method` forks a child on Linux when no
other thread of the process outlives a fork, so that it inherits the
imported library, and spawns it anywhere else. Between wake-ups it renews the
leases of the children still running — so a shard that *hangs* is
distinguishable from one that merely takes long: the lease stays fresh,
and the manifest's ``shard_timeout_s`` (not the TTL) is what kills a
runaway child. When a child ends, the loop releases its lease, or
records the failed attempt and quarantines the shard once it is out of
attempts. A worker that dies entirely — SIGKILL, OOM, power loss — stops
heartbeating, its leases expire after ``lease_ttl_s``, and any surviving
worker reclaims the shards: re-execution cost is bounded by the shard,
never the sweep. Its callers: :func:`run_worker` (one slot),
:func:`run_scheduled_sweep` (N slots) and :func:`repro.sweep.run_sweep`
with ``workers >= 2`` (N slots over a temporary scheduler directory).

The shard child writes its envelope with the same atomic
temp-file-then-rename discipline as every sweep envelope, *then* the
parent releases the lease — so the crash window between the two leaves a
done shard with a stale lease, which reclamation recognizes (envelope
present ⇒ just clean up, no retry). Because ``run_shard`` is a pure
function of the resolved plan, a retried shard produces byte-identical
reports and the merged sweep is byte-identical to the fault-free run,
whichever start method ran it.

Fault injection for tests and CI: ``REPRO_SCHED_TEST_HOLD_S`` makes a
worker sleep *between claiming a lease and starting the shard child* —
SIGKILLing it inside that window is exactly the crash the reclamation
path exists for, deterministically. ``REPRO_SWEEP_TEST_CRASH_SHARDS`` /
``REPRO_SWEEP_TEST_HANG_SHARDS`` (comma-separated shard indices) make a
shard child's *first* attempt exit with code 23 or hang until the
deadline kill.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Tuple

from ..errors import InvalidSpec, LeaseError
from ..lp.scipy_backend import highs_binding
from ..registry import describe_algorithms
from ..spec import BuildReport
from ..sweep import (
    SweepPlan,
    atomic_write_json,
    merge_shard_reports,
    run_shard,
    save_shard_report,
)
from .lease import Lease, claim_lease, default_worker_id
from .manifest import Manifest
from .scheduler import (
    attempts_dir,
    envelope_path,
    leases_dir,
    load_scheduler,
    quarantine_if_exhausted,
    reclaim_expired_leases,
    record_attempt,
    reports_dir,
    scheduler_envelope_paths,
    scheduler_status,
    shard_attempts,
    shard_state,
    tmp_dir,
)

#: Fault-injection knob (seconds): hold between lease claim and child
#: start, opening a deterministic crash window for tests and CI.
TEST_HOLD_ENV = "REPRO_SCHED_TEST_HOLD_S"

#: Fault-injection knobs (tests/CI only): comma-separated shard indices
#: whose *first* attempt crashes (exit 23) or hangs in the shard child.
TEST_CRASH_ENV = "REPRO_SWEEP_TEST_CRASH_SHARDS"
TEST_HANG_ENV = "REPRO_SWEEP_TEST_HANG_SHARDS"


def _env_index_set(name: str) -> frozenset:
    text = os.environ.get(name, "")
    return frozenset(
        int(part) for part in text.split(",") if part.strip() != ""
    )


def _start_method() -> str:
    """``fork`` on Linux when no other thread outlives a fork, else ``spawn``.

    A lock another thread holds at fork time stays held in the child,
    and a native pool forked mid-life leaves it waiting on workers that
    do not exist there; CPython 3.12+ warns on such a fork. Some pools
    stop inside ``fork()`` (OpenBLAS's, and HiGHS's through the hook
    :mod:`repro.lp.scipy_backend` registers), so other OS threads are
    counted again after a probe fork whose child exits at once, where
    CPython counts them. Nothing else selects the method.
    """
    if sys.platform != "linux" or threading.active_count() != 1:
        return "spawn"
    threads = _os_threads()
    if threads > 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # the probe's own
            pid = os.fork()
            if pid == 0:
                os._exit(0)
        os.waitpid(pid, 0)
        threads = _os_threads()
    return "fork" if threads == 1 else "spawn"


def _os_threads() -> int:
    """This process's OS threads, or 0 when ``/proc`` cannot say."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _shard_child(sched_dir: str, index: int, attempt: int, error_path: str) -> None:
    """Child-process entry: run one shard and persist its envelope.

    A forked child first drops the SIGTERM handler it inherited from
    the caller, so that the supervisor's ``terminate()`` kills it, and
    freezes the inherited heap, so that its own collections do not copy
    the parent's pages.

    A retried envelope carries its ``attempts`` number and whether an
    earlier attempt was killed at the shard deadline (``timed_out``).
    Failures are captured into ``error_path`` (inside the scheduler's
    ``tmp/``, invisible to merges) so the parent can quote the real
    exception in the attempt record instead of a bare exit code.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    gc.freeze()
    if attempt == 1:
        if index in _env_index_set(TEST_CRASH_ENV):
            os._exit(23)
        if index in _env_index_set(TEST_HANG_ENV):
            time.sleep(3600)  # parked until the deadline kill arrives
    try:
        manifest, plan = load_scheduler(sched_dir)
        shard = plan.shard(index, manifest.of)
        envelope = run_shard(
            shard, include_spanner=manifest.include_spanner
        )
        envelope["attempts"] = attempt
        envelope["timed_out"] = any(
            record.get("timed_out") for record in shard_attempts(sched_dir, index)
        )
        save_shard_report(envelope, reports_dir(sched_dir))
    except BaseException as exc:
        atomic_write_json(
            {
                "shard": index,
                "attempt": attempt,
                "error": repr(exc),
                "traceback": traceback.format_exc(),
            },
            error_path,
        )
        sys.exit(1)


def _read_error(error_path: str) -> Optional[str]:
    try:
        with open(error_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return doc.get("error")
    except (OSError, ValueError):
        return None
    finally:
        try:
            os.unlink(error_path)
        except OSError:
            pass


def _pick_claimable(
    states: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]], worker: str
) -> Optional[Tuple[int, int]]:
    """Choose ``(index, attempt_number)`` to claim next, or ``None``.

    ``states`` holds :func:`repro.sched.scheduler.shard_state` for every
    shard, in plan order. Pending shards come first. Retryable shards
    whose backoff elapsed come next, preferring ones last failed by a
    *different* worker — so with several workers alive, a poison shard's
    attempts spread across distinct machines before quarantine concludes
    it is the shard, not the worker.
    """
    for entry, _ in states:
        if entry["state"] == "pending":
            return entry["shard"], 1
    retryable = [
        (attempts[-1].get("worker") == worker, entry["shard"], len(attempts))
        for entry, attempts in states
        if entry["state"] == "retrying"
        and entry.get("retry_backoff_remaining_s", 0.0) == 0.0
    ]
    if retryable:
        _, index, failed = min(retryable)
        return index, failed + 1
    return None


@dataclass
class _Child:
    """One running shard child and the lease it executes under."""

    process: Any
    lease: Lease
    deadline: float  # time.monotonic() value; inf without a shard timeout
    error_path: str


def _kill(process: Any) -> None:
    process.terminate()
    process.join(2.0)
    if process.is_alive():  # pragma: no cover - terminate sufficed
        process.kill()
        process.join()


def _settle(
    sched_dir: str,
    manifest: Manifest,
    child: _Child,
    worker: str,
    timed_out: bool,
) -> bool:
    """Release an ended child's lease, or record its failed attempt.

    Returns True when the shard's envelope is in place.
    """
    lease = child.lease
    index = lease.index
    child.process.join()
    exitcode = child.process.exitcode
    if exitcode == 0 and os.path.exists(envelope_path(sched_dir, index)):
        try:
            lease.release()
        except LeaseError:
            # The lease expired mid-run and was reclaimed; the envelope
            # is in place, so the shard still counts as done (reclaimers
            # with an envelope in view clean up rather than retry).
            pass
        return True
    error = _read_error(child.error_path)
    if timed_out:
        reason = (
            f"shard timed out after {manifest.shard_timeout_s}s wall clock "
            "(child killed)"
        )
    else:
        reason = f"shard child exited with code {exitcode}"
    tombstone = os.path.join(
        attempts_dir(sched_dir),
        f"shard-{index}.attempt-{lease.attempt}.json",
    )
    try:
        os.replace(lease.path, tombstone)
    except FileNotFoundError:
        # Reclaimed from under us (e.g. the hold knob outlived the TTL);
        # whoever stole the lease wrote the attempt record already.
        return False
    record_attempt(
        sched_dir, index, lease.attempt, worker=worker,
        reason=reason, error=error, stolen_lease=lease.to_dict(),
        timed_out=timed_out,
    )
    quarantine_if_exhausted(sched_dir, manifest, index)
    return False


def _supervise(
    sched_dir: str,
    manifest: Manifest,
    plan: SweepPlan,
    worker: str,
    slots: int,
    max_shards: Optional[int] = None,
    poll_interval_s: Optional[float] = None,
) -> Dict[str, int]:
    """Keep up to ``slots`` shard children running until the sweep ends.

    Each pass reclaims expired leases and rescans the directory; with a
    free slot it claims the next shard and starts its child (forked or
    spawned by :func:`_start_method`, decided at each start), otherwise
    it waits for a child to end, a shard deadline, or the next heartbeat.
    With nothing running and nothing claimable the loop idles on
    ``poll_interval_s`` — it does *not* exit while other workers still
    hold live claims, because one of them dying would otherwise strand
    the sweep with nobody left to reclaim. It exits once every shard is
    done or quarantined (or ``max_shards`` claims have ended) and returns
    the claimed / completed / failed / reclaimed counts.

    Before the first start it imports the HiGHS binding
    (:func:`repro.lp.scipy_backend.highs_binding`) when any spec of
    ``plan`` names an ``lp_path`` algorithm and children are forked, so
    that they inherit it instead of each importing :mod:`scipy.optimize`
    on its first solve. Spawned children import it themselves either
    way, and other plans import nothing new. A name the registry does
    not know is not looked up here: its shard fails in its child.
    """
    lp_algorithms = {row["name"] for row in describe_algorithms() if row["lp_path"]}
    if (
        any(spec.algorithm in lp_algorithms for spec in plan.specs)
        and _start_method() == "fork"
    ):
        highs_binding()
    if poll_interval_s is None:
        poll_interval_s = min(1.0, max(0.05, manifest.lease_ttl_s / 4.0))
    heartbeat_every = max(0.05, manifest.lease_ttl_s / 3.0)
    hold_s = float(os.environ.get(TEST_HOLD_ENV, "0") or "0")
    counts = {"claimed": 0, "completed": 0, "failed": 0, "reclaimed": 0}
    running: Dict[int, _Child] = {}  # keyed by process sentinel
    renew_at = time.monotonic() + heartbeat_every
    try:
        while True:
            counts["reclaimed"] += len(
                reclaim_expired_leases(sched_dir, manifest, worker)
            )
            states = [
                shard_state(sched_dir, manifest, index)
                for index in range(manifest.of)
            ]
            capped = max_shards is not None and counts["claimed"] >= max_shards
            if not running and (capped or all(
                entry["state"] in ("done", "quarantined")
                for entry, _ in states
            )):
                break
            pick = None
            if len(running) < slots and not capped:
                pick = _pick_claimable(states, worker)
            if pick is not None:
                index, attempt = pick
                lease = claim_lease(
                    leases_dir(sched_dir), index, worker,
                    ttl_s=manifest.lease_ttl_s, attempt=attempt,
                )
                if lease is None:
                    continue  # lost the O_EXCL race; rescan
                counts["claimed"] += 1
                if hold_s > 0:
                    time.sleep(hold_s)  # fault-injection crash window
                error_path = os.path.join(
                    tmp_dir(sched_dir),
                    f"shard-{index}.{os.getpid()}.error.json",
                )
                context = multiprocessing.get_context(_start_method())
                process = context.Process(
                    target=_shard_child,
                    args=(sched_dir, index, attempt, error_path),
                )
                process.start()
                deadline = time.monotonic() + (manifest.shard_timeout_s or math.inf)
                running[process.sentinel] = _Child(
                    process, lease, deadline, error_path
                )
                continue  # rescan: fill the next free slot
            if not running:
                # Everything is claimed elsewhere or backing off: wait for
                # a heartbeat to lapse or a backoff window to close.
                time.sleep(poll_interval_s)
                continue
            now = time.monotonic()
            wake = min([renew_at] + [c.deadline for c in running.values()])
            if len(running) < slots and not capped:
                wake = min(wake, now + poll_interval_s)  # rescan for work
            ended = set(wait(list(running), timeout=max(0.0, wake - now)))
            now = time.monotonic()
            for sentinel, child in list(running.items()):
                timed_out = sentinel not in ended and now >= child.deadline
                if sentinel in ended or timed_out:
                    del running[sentinel]
                    if timed_out:
                        _kill(child.process)
                    settled = _settle(sched_dir, manifest, child, worker, timed_out)
                    counts["completed" if settled else "failed"] += 1
            if now >= renew_at:
                for child in running.values():
                    child.lease.renew()
                renew_at = now + heartbeat_every
    finally:
        # Only reached with children still running when this loop
        # itself is failing (an interrupt, a lost directory): leave no
        # orphans behind. Their leases expire and are reclaimed.
        for child in running.values():
            _kill(child.process)
    return counts


def run_worker(
    sched_dir: str,
    worker_id: Optional[str] = None,
    max_shards: Optional[int] = None,
    poll_interval_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Work a scheduler directory until the sweep finishes (or a cap).

    Runs the supervisor loop with one slot: reclaim expired leases, claim
    the next available shard, execute it in a heartbeated child, repeat.
    With nothing claimable the worker idles on ``poll_interval_s`` until
    the sweep finishes. Returns a summary: shards completed / failed
    here, leases reclaimed, and the final directory state.
    """
    manifest, plan = load_scheduler(sched_dir)
    worker = worker_id if worker_id is not None else default_worker_id()
    counts = _supervise(
        sched_dir, manifest, plan, worker, slots=1,
        max_shards=max_shards, poll_interval_s=poll_interval_s,
    )
    status = scheduler_status(sched_dir)
    return {
        "worker": worker,
        **counts,
        "complete": status["complete"],
        "degraded": status["degraded"],
        "counts": status["counts"],
    }


def run_scheduled_sweep(
    sched_dir: str,
    workers: int,
) -> Tuple[Optional[List[BuildReport]], Dict[str, Any]]:
    """Drive an initialized scheduler directory to completion on one host.

    Runs the supervisor loop in this process with ``workers`` shard
    children at a time (more workers can join from other machines via
    ``repro sweep-worker`` at any time). Returns ``(reports, status)``:
    merged reports in plan order when the sweep is complete, or ``None``
    with the status document (quarantine ledger included) when it
    finished degraded.
    """
    if workers < 1:
        raise InvalidSpec(f"scheduled sweeps need workers >= 1, got {workers}")
    manifest, plan = load_scheduler(sched_dir)
    _supervise(sched_dir, manifest, plan, default_worker_id(), slots=workers)
    status = scheduler_status(sched_dir)
    if status["degraded"] or not status["complete"]:
        return None, status
    reports = merge_shard_reports(scheduler_envelope_paths(sched_dir))
    return reports, status


__all__ = [
    "TEST_HOLD_ENV",
    "run_scheduled_sweep",
    "run_worker",
]
