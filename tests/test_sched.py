"""Fault-tolerant sweep scheduler: leases, reclamation, quarantine, recovery.

The acceptance criteria of the subsystem, verified with real processes:

* a sweep whose worker is SIGKILLed mid-shard (after the lease claim,
  before the envelope write) still completes, and its merged reports are
  byte-identical to a fault-free sequential run — across hash-seed
  randomized worker subprocesses;
* a deterministically-failing shard lands in the ``failed/`` quarantine
  ledger with its captured exception, and the sweep finishes *degraded*
  instead of hanging.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import FaultModel, SpannerSpec
from repro.errors import InvalidSpec, LeaseError, ShardQuarantined, SweepError
from repro.graph import connected_gnp_graph, gnp_random_digraph
from repro.sched import (
    Manifest,
    claim_lease,
    init_scheduler_dir,
    is_scheduler_dir,
    load_scheduler,
    read_lease,
    reclaim_expired_leases,
    run_scheduled_sweep,
    run_worker,
    scheduler_envelope_paths,
    scheduler_status,
    shard_attempts,
)
from repro.sched import lease as lease_module
from repro.sched.lease import is_expired, lease_path
from repro.sched.scheduler import (
    envelope_path,
    leases_dir,
    quarantine_path,
    record_attempt,
    shard_state,
)
from repro.sweep import (
    SweepPlan,
    load_shard_report,
    merge_shard_reports,
    run_shard,
    run_sweep,
    save_shard_report,
)

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


@pytest.fixture
def plan():
    """Four specs over one host: small enough for subprocess tests."""
    host = connected_gnp_graph(16, 0.3, seed=1)
    specs = [
        SpannerSpec(
            "theorem21", stretch=3, faults=FaultModel.vertex(1),
            params={"schedule": "light", "constant": 1.0}, graph=host,
        ),
        SpannerSpec("greedy", stretch=3, graph=host),
        SpannerSpec("baswana-sen", stretch=3, graph=host),
        SpannerSpec("greedy", stretch=5, graph=host),
    ]
    return SweepPlan.build(specs, name="sched-test")


def report_docs(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(
            plan_fingerprint="abc123", of=3, name="m", lease_ttl_s=5.0,
            max_attempts=2, shard_timeout_s=60.0,
        )
        path = str(tmp_path / "manifest.json")
        manifest.save(path)
        assert Manifest.load(path) == manifest

    def test_strictness(self, tmp_path):
        with pytest.raises(InvalidSpec):
            Manifest(plan_fingerprint="", of=1)
        with pytest.raises(InvalidSpec):
            Manifest(plan_fingerprint="abc", of=0)
        with pytest.raises(InvalidSpec):
            Manifest(plan_fingerprint="abc", of=1, max_attempts=0)
        doc = Manifest(plan_fingerprint="abc", of=1).to_dict()
        doc["surprise"] = True
        with pytest.raises(InvalidSpec, match="surprise"):
            Manifest.from_dict(doc)
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"truncat')
        with pytest.raises(InvalidSpec, match="manifest"):
            Manifest.load(path)

    def test_backoff_is_capped_exponential(self):
        manifest = Manifest(
            plan_fingerprint="abc", of=1,
            backoff_base_s=0.5, backoff_cap_s=3.0,
        )
        assert [manifest.backoff_s(k) for k in (1, 2, 3, 4, 5)] == [
            0.5, 1.0, 2.0, 3.0, 3.0
        ]


class TestLease:
    def test_claim_is_exclusive(self, tmp_path):
        d = str(tmp_path)
        lease = claim_lease(d, 0, "w1", ttl_s=5.0)
        assert lease is not None and lease.worker == "w1"
        assert claim_lease(d, 0, "w2", ttl_s=5.0) is None  # held
        assert claim_lease(d, 1, "w2", ttl_s=5.0) is not None  # other shard

    def test_renew_refreshes_heartbeat(self, tmp_path, monkeypatch):
        d = str(tmp_path)
        clock = [1000.0]
        monkeypatch.setattr(lease_module, "_now", lambda: clock[0])
        lease = claim_lease(d, 0, "w1", ttl_s=5.0)
        clock[0] = 1006.0
        record = read_lease(lease.path)
        assert is_expired(lease.path, record, 5.0)
        lease.renew()
        record = read_lease(lease.path)
        assert not is_expired(lease.path, record, 5.0)
        assert record["heartbeat_at"] == 1006.0

    def test_release_of_reclaimed_lease_raises(self, tmp_path):
        lease = claim_lease(str(tmp_path), 0, "w1", ttl_s=5.0)
        os.unlink(lease.path)  # someone reclaimed it
        with pytest.raises(LeaseError, match="reclaimed"):
            lease.release()

    def test_corrupt_lease_expires_by_mtime(self, tmp_path, monkeypatch):
        path = lease_path(str(tmp_path), 0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"torn')
        record = read_lease(path)
        assert record["corrupt"]
        mtime = os.stat(path).st_mtime
        monkeypatch.setattr(lease_module, "_now", lambda: mtime + 10.0)
        assert is_expired(path, record, 5.0)


class TestSchedulerDir:
    def test_init_is_idempotent_for_same_plan(self, plan, tmp_path):
        sd = str(tmp_path / "sched")
        m1, p1 = init_scheduler_dir(sd, plan, of=2, seed=4)
        m2, p2 = init_scheduler_dir(sd, plan, of=2, seed=4)
        assert m1 == m2
        assert p1.fingerprint() == p2.fingerprint()
        assert is_scheduler_dir(sd)

    def test_init_refuses_a_different_plan(self, plan, tmp_path):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(sd, plan, of=2, seed=4)
        with pytest.raises(InvalidSpec, match="refusing to"):
            init_scheduler_dir(sd, plan, of=3, seed=4)  # different of
        with pytest.raises(InvalidSpec, match="refusing to"):
            init_scheduler_dir(sd, plan, of=2, seed=5)  # different seeds

    def test_init_validates_shard_count(self, plan, tmp_path):
        with pytest.raises(InvalidSpec, match="shard count"):
            init_scheduler_dir(str(tmp_path / "s"), plan, of=99, seed=4)

    def test_load_refuses_diverged_plan(self, plan, tmp_path):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(sd, plan, of=2, seed=4)
        other = plan.resolve_seeds(5)
        other.save(os.path.join(sd, "plan.json"))
        with pytest.raises(InvalidSpec, match="diverged"):
            load_scheduler(sd)

    def test_reclaim_steals_only_expired_leases(
        self, plan, tmp_path, monkeypatch
    ):
        sd = str(tmp_path / "sched")
        manifest, _ = init_scheduler_dir(
            sd, plan, of=2, seed=4, lease_ttl_s=5.0
        )
        clock = [1000.0]
        monkeypatch.setattr(lease_module, "_now", lambda: clock[0])
        dead = claim_lease(leases_dir(sd), 0, "dead-worker", ttl_s=5.0)
        clock[0] = 1004.0
        live = claim_lease(leases_dir(sd), 1, "live-worker", ttl_s=5.0)
        clock[0] = 1007.0  # shard 0 is 7s stale, shard 1 only 3s
        assert reclaim_expired_leases(sd, manifest) == [0]
        assert not os.path.exists(dead.path)
        assert os.path.exists(live.path)
        attempts = shard_attempts(sd, 0)
        assert len(attempts) == 1
        assert attempts[0]["worker"] == "dead-worker"
        assert "lease expired" in attempts[0]["reason"]
        assert shard_attempts(sd, 1) == []

    def test_reclaim_cleans_up_done_but_unreleased(
        self, plan, tmp_path, monkeypatch
    ):
        sd = str(tmp_path / "sched")
        manifest, resolved = init_scheduler_dir(
            sd, plan, of=2, seed=4, lease_ttl_s=5.0
        )
        clock = [1000.0]
        monkeypatch.setattr(lease_module, "_now", lambda: clock[0])
        lease = claim_lease(leases_dir(sd), 0, "crashed-late", ttl_s=5.0)
        # The worker persisted its envelope but died before releasing.
        envelope = run_shard(resolved.shard(0, 2))
        save_shard_report(envelope, os.path.join(sd, "reports"))
        clock[0] = 1010.0
        assert reclaim_expired_leases(sd, manifest) == []
        assert not os.path.exists(lease.path)
        assert shard_attempts(sd, 0) == []  # done, not a failure

    def test_status_reports_every_state(self, plan, tmp_path, monkeypatch):
        sd = str(tmp_path / "sched")
        manifest, resolved = init_scheduler_dir(
            sd, plan, of=4, seed=4, lease_ttl_s=5.0
        )
        save_shard_report(run_shard(resolved.shard(0, 4)),
                          os.path.join(sd, "reports"))
        claim_lease(leases_dir(sd), 1, "w1", ttl_s=5.0)
        record_attempt(sd, 2, 1, worker="w0", reason="boom", error="E")
        status = scheduler_status(sd)
        states = {s["shard"]: s["state"] for s in status["shards"]}
        assert states == {0: "done", 1: "claimed", 2: "retrying", 3: "pending"}
        assert status["counts"]["done"] == 1
        assert status["complete"] is False
        assert status["degraded"] is False
        assert status["finished"] is False
        retrying = status["shards"][2]
        assert retrying["attempts"] == 1
        assert retrying["retry_backoff_remaining_s"] >= 0.0

    def test_shard_state_reads_no_plan(self, plan, tmp_path, monkeypatch):
        sd = str(tmp_path / "sched")
        manifest, _ = init_scheduler_dir(
            sd, plan, of=3, seed=4, lease_ttl_s=5.0
        )
        clock = [1000.0]
        monkeypatch.setattr(lease_module, "_now", lambda: clock[0])
        claim_lease(leases_dir(sd), 0, "w0", ttl_s=5.0)
        clock[0] = 1004.0
        claim_lease(leases_dir(sd), 1, "w1", ttl_s=5.0)
        clock[0] = 1007.0  # shard 0's lease is 7s stale, shard 1's 3s
        os.unlink(os.path.join(sd, "plan.json"))
        states = [shard_state(sd, manifest, i)[0] for i in range(3)]
        assert [s["state"] for s in states] == ["expired", "claimed", "pending"]
        assert [s.get("worker") for s in states] == ["w0", "w1", None]


class TestDurableWrites:
    def test_envelope_and_plan_are_fsynced_before_rename(
        self, plan, tmp_path, monkeypatch
    ):
        """Each document's temp file reaches the disk before its rename."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        sd = str(tmp_path / "sched")
        _, resolved = init_scheduler_dir(sd, plan, of=2, seed=4)
        save_shard_report(
            run_shard(resolved.shard(0, 2)), os.path.join(sd, "reports")
        )
        for name in ("plan.json", "shard-0.json"):
            renames = [
                (position, event[1])
                for position, event in enumerate(events)
                if event[0] == "replace" and event[2] == name
            ]
            assert len(renames) == 1, f"{name} was not renamed into place"
            [(position, inode)] = renames
            assert ("fsync", inode) in events[:position], name


class TestWorkerByteIdentity:
    def test_single_worker_matches_sequential(self, plan, tmp_path):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(sd, plan, of=3, seed=4, lease_ttl_s=30.0)
        summary = run_worker(sd, worker_id="solo")
        assert summary["completed"] == 3
        assert summary["complete"] and not summary["degraded"]
        merged = merge_shard_reports(scheduler_envelope_paths(sd))
        assert report_docs(merged) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )

    def test_run_scheduled_sweep_multi_worker(self, plan, tmp_path):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(sd, plan, of=3, seed=4, lease_ttl_s=30.0)
        reports, status = run_scheduled_sweep(sd, workers=2)
        assert status["complete"] and not status["degraded"]
        assert report_docs(reports) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )

    def test_rejects_zero_workers(self, plan, tmp_path):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(sd, plan, of=2, seed=4)
        with pytest.raises(InvalidSpec, match="workers >= 1"):
            run_scheduled_sweep(sd, workers=0)


class TestShardTimeout:
    def test_timed_out_attempt_is_reported_on_the_retried_envelope(
        self, plan, tmp_path, monkeypatch
    ):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(
            sd, plan, of=2, seed=4, backoff_base_s=0.0, shard_timeout_s=10.0
        )
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_SHARDS", "1")
        reports, status = run_scheduled_sweep(sd, workers=2)
        assert status["complete"] and not status["degraded"]
        [record] = shard_attempts(sd, 1)
        assert record["timed_out"] is True
        assert "timed out" in record["reason"]
        envelopes = [load_shard_report(envelope_path(sd, i)) for i in (0, 1)]
        assert [env["attempts"] for env in envelopes] == [1, 2]
        assert [env["timed_out"] for env in envelopes] == [False, True]
        monkeypatch.delenv("REPRO_SWEEP_TEST_HANG_SHARDS")
        assert report_docs(reports) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )


class TestQuarantine:
    @pytest.fixture
    def poisoned_dir(self, tmp_path):
        """Shard 1 fails deterministically: wrong fault kind for the
        algorithm, refused at build time on every attempt."""
        host = connected_gnp_graph(16, 0.3, seed=1)
        plan = SweepPlan.build(
            [
                SpannerSpec("greedy", stretch=3, graph=host),
                SpannerSpec(
                    "theorem21", stretch=3, graph=host,
                    params={"until_valid": {"trials": 30}},
                ),
            ],
            name="poison",
        )
        sd = str(tmp_path / "sched")
        init_scheduler_dir(
            sd, plan, of=2, seed=4, lease_ttl_s=30.0,
            max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        return sd, plan

    def test_poison_shard_is_quarantined_not_hung(self, poisoned_dir):
        sd, plan = poisoned_dir
        summary = run_worker(sd, worker_id="w0")
        assert summary["degraded"] and not summary["complete"]
        assert summary["completed"] == 1
        assert summary["failed"] == 2  # max_attempts exhausted
        assert os.path.exists(quarantine_path(sd, 1))
        status = scheduler_status(sd)
        assert status["counts"]["quarantined"] == 1
        assert status["finished"] is True
        [entry] = status["quarantined"]
        assert entry["shard"] == 1
        assert len(entry["attempts"]) == 2
        # The ledger carries the real exception, not just an exit code.
        assert any(
            "fault kinds" in (a.get("error") or "")
            for a in entry["attempts"]
        )

    def test_degraded_sweep_returns_status_not_reports(self, poisoned_dir):
        sd, _plan = poisoned_dir
        reports, status = run_scheduled_sweep(sd, workers=1)
        assert reports is None
        assert status["degraded"] is True

    def test_merge_refuses_quarantined_directory(self, poisoned_dir):
        sd, _plan = poisoned_dir
        run_worker(sd, worker_id="w0")
        with pytest.raises(ShardQuarantined, match="quarantined") as info:
            scheduler_envelope_paths(sd)
        assert isinstance(info.value, SweepError)
        assert len(info.value.ledger) == 1
        assert info.value.ledger[0]["shard"] == 1

    def test_deleting_ledger_entries_makes_shard_retryable(
        self, poisoned_dir
    ):
        sd, _plan = poisoned_dir
        run_worker(sd, worker_id="w0")
        # Operator remediation path from the error message: remove the
        # failed/ entry and its attempts/ records, then resume.
        os.unlink(quarantine_path(sd, 1))
        import glob as glob_module

        for path in glob_module.glob(
            os.path.join(sd, "attempts", "shard-1.attempt-*.json")
        ):
            os.unlink(path)
        status = scheduler_status(sd)
        assert {s["shard"]: s["state"] for s in status["shards"]}[1] == "pending"

    def test_unknown_algorithm_fails_only_its_shard(self, tmp_path):
        """Names resolve at build time: a plan that names an algorithm
        nobody registered still runs its other shards, LP ones included,
        and quarantines that one with the lookup error."""
        digraph = gnp_random_digraph(10, 0.3, seed=1, cost_range=(1.0, 3.0))
        plan = SweepPlan.build(
            [
                SpannerSpec("no-such-algorithm", stretch=3, graph=digraph),
                SpannerSpec("ft2-approx", stretch=2, graph=digraph, seed=1),
                SpannerSpec("greedy", stretch=3, graph=digraph),
            ],
            name="unknown",
        )
        sd = str(tmp_path / "sched")
        init_scheduler_dir(
            sd, plan, of=3, seed=4, lease_ttl_s=30.0,
            max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        reports, status = run_scheduled_sweep(sd, workers=2)
        assert reports is None and status["degraded"]
        assert status["counts"]["quarantined"] == 1
        [entry] = status["quarantined"]
        assert entry["shard"] == 0 and len(entry["attempts"]) == 2
        assert all(
            "no-such-algorithm" in (a.get("error") or "")
            for a in entry["attempts"]
        )
        states = {s["shard"]: s["state"] for s in status["shards"]}
        assert states == {0: "quarantined", 1: "done", 2: "done"}


class TestCrashWindowRecovery:
    """SIGKILL a real worker between lease claim and envelope write."""

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_sigkilled_worker_sweep_is_byte_identical(
        self, plan, tmp_path, hashseed
    ):
        sd = str(tmp_path / "sched")
        init_scheduler_dir(sd, plan, of=3, seed=4, lease_ttl_s=2.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env["PYTHONHASHSEED"] = hashseed
        env["REPRO_SCHED_TEST_HOLD_S"] = "120"
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep-worker", sd,
             "--worker-id", "doomed"],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for the claim: the hold knob parks the worker between
            # the lease create and the shard child start, so killing the
            # whole session here is exactly the targeted crash window.
            deadline = time.monotonic() + 60.0
            lease_file = lease_path(leases_dir(sd), 0)
            while not os.path.exists(lease_file):
                assert time.monotonic() < deadline, "worker never claimed"
                assert victim.poll() is None, "worker died before claiming"
                time.sleep(0.05)
            assert not os.path.exists(envelope_path(sd, 0))
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        # A surviving worker reclaims the expired lease and finishes.
        summary = run_worker(sd, worker_id="survivor")
        assert summary["complete"] and not summary["degraded"]
        assert summary["reclaimed"] >= 1
        status = scheduler_status(sd)
        retried = [s for s in status["shards"] if s["attempts"] > 0]
        assert [s["shard"] for s in retried] == [0]
        merged = merge_shard_reports(scheduler_envelope_paths(sd))
        assert report_docs(merged) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )
