"""Sharded sweep driver: plan round trips, partition determinism, merge.

The load-bearing property here is the acceptance criterion of the sweep
subsystem: *any* ``(i, of)`` partition of a plan — in-process, across
worker processes, or across hash-randomized subprocesses — reproduces the
sequential :meth:`repro.session.Session.build_many` reports exactly
(same resolved seeds, same RNG fingerprints, byte-identical report
documents).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import (
    FaultModel,
    Session,
    SpannerSpec,
    SweepPlan,
    coverage_matrix,
    emit_grid_plan,
    run_sweep,
)
from repro.errors import InvalidSpec
from repro.graph import connected_gnp_graph
from repro.sweep import (
    load_shard_report,
    merge_shard_reports,
    parse_shard,
    run_shard,
    save_shard_report,
)


@pytest.fixture
def hosts():
    return (
        connected_gnp_graph(18, 0.3, seed=1),
        connected_gnp_graph(22, 0.25, seed=2),
    )


@pytest.fixture
def plan(hosts):
    """Nine unseeded specs over two hosts, three algorithms."""
    g1, g2 = hosts
    specs = (
        [
            SpannerSpec(
                "theorem21", stretch=3, faults=FaultModel.vertex(1),
                params={"schedule": "light", "constant": 1.0}, graph=g1,
            )
            for _ in range(3)
        ]
        + [SpannerSpec("greedy", stretch=3, graph=g2) for _ in range(3)]
        + [SpannerSpec("baswana-sen", stretch=3, graph=g1) for _ in range(3)]
    )
    return SweepPlan.build(specs, name="test-plan")


def report_docs(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


class TestSweepPlan:
    def test_build_hoists_shared_hosts(self, plan):
        assert len(plan) == 9
        assert len(plan.hosts) == 2  # two instances -> two shared refs
        assert all(spec.graph is None for spec in plan.specs)

    def test_json_round_trip(self, plan, tmp_path):
        clone = SweepPlan.from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        assert clone.fingerprint() == plan.fingerprint()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert SweepPlan.load(path).to_json() == plan.to_json()

    def test_path_hosts_stay_refs(self, hosts, tmp_path):
        from repro.graph import dump_json

        path = str(tmp_path / "host.json")
        dump_json(hosts[0], path)
        plan = SweepPlan.build(
            [SpannerSpec("greedy", stretch=3, seed=1, graph=path)]
        )
        assert plan.to_dict()["hosts"] == {path: path}
        assert plan.host_graph(path).num_vertices == hosts[0].num_vertices

    def test_rejects_unknown_keys_and_formats(self):
        with pytest.raises(InvalidSpec):
            SweepPlan.from_dict({"format": "nope"})
        doc = SweepPlan.build(
            [SpannerSpec("greedy", stretch=3, graph=connected_gnp_graph(6, 0.8, seed=0))]
        ).to_dict()
        doc["surprise"] = 1
        with pytest.raises(InvalidSpec) as excinfo:
            SweepPlan.from_dict(doc)
        assert "surprise" in str(excinfo.value)

    def test_rejects_spec_with_own_binding(self, hosts):
        g1, _ = hosts
        with pytest.raises(InvalidSpec):
            SweepPlan(
                specs=(SpannerSpec("greedy", stretch=3, graph=g1),),
                host_keys=("h",),
                hosts={"h": g1},
            )

    def test_plan_needs_a_host(self):
        with pytest.raises(InvalidSpec) as excinfo:
            SweepPlan.build([SpannerSpec("greedy", stretch=3)])
        assert "host" in str(excinfo.value)

    @pytest.mark.parametrize("path_first", [True, False])
    def test_inline_keys_never_collide_with_path_hosts(
        self, hosts, tmp_path, path_first
    ):
        """A path host literally named "host-0" keeps its own graph."""
        from repro.graph import dump_json, load_json

        g1, g2 = hosts
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            dump_json(g2, "host-0")
            path_spec = SpannerSpec("greedy", stretch=3, graph="host-0")
            inline_spec = SpannerSpec("greedy", stretch=3, graph=g1)
            specs = (
                [path_spec, inline_spec] if path_first
                else [inline_spec, path_spec]
            )
            plan = SweepPlan.build(specs)
            assert len(plan.hosts) == 2
            path_pos = 0 if path_first else 1
            assert plan.hosts[plan.host_keys[path_pos]] == "host-0"
            assert (
                plan.host_graph(plan.host_keys[path_pos]).num_vertices
                == g2.num_vertices
            )
            assert (
                plan.host_graph(plan.host_keys[1 - path_pos]).num_vertices
                == g1.num_vertices
            )
        finally:
            os.chdir(cwd)

    def test_resolve_seeds_matches_session_rule(self, plan, hosts):
        resolved = plan.resolve_seeds(7)
        assert resolved.is_resolved and not plan.is_resolved
        session = Session(seed=7)
        sequential = [
            session.build(spec, graph=plan.host_graph(key))
            for spec, key in zip(plan.specs, plan.host_keys)
        ]
        assert [s.seed for s in resolved.specs] == [
            r.resolved_seed for r in sequential
        ]
        # Explicit seeds survive resolution untouched.
        pinned = plan.specs[0].replace(seed=99)
        plan2 = SweepPlan.build(
            [pinned.replace(graph=hosts[0]), plan.specs[1].replace(graph=hosts[0])]
        )
        assert plan2.resolve_seeds(7).specs[0].seed == 99

    def test_shard_requires_resolved_plan(self, plan):
        with pytest.raises(InvalidSpec) as excinfo:
            plan.shard(0, 2)
        assert "resolve_seeds" in str(excinfo.value)

    @pytest.mark.parametrize("of", [1, 2, 3, 4, 9])
    def test_shards_partition_the_plan(self, plan, of):
        resolved = plan.resolve_seeds(0)
        shards = [resolved.shard(i, of) for i in range(of)]
        indices = [i for shard in shards for i in shard.parent_indices]
        assert sorted(indices) == list(range(len(plan)))
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_shards_are_host_grouped(self, plan):
        resolved = plan.resolve_seeds(0)
        # Two hosts, two shards: contiguous host-ordered chunks touch at
        # most hosts + shards - 1 = 3 (host, shard) pairs in total.
        shards = [resolved.shard(i, 2) for i in range(2)]
        touched = sum(len(set(shard.host_keys)) for shard in shards)
        assert touched <= len(plan.hosts) + 2 - 1
        # Each shard's host table is trimmed to what it needs.
        for shard in shards:
            assert set(shard.hosts) == set(shard.host_keys)

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        for bad in ("4/4", "-1/2", "x/2", "2"):
            with pytest.raises(InvalidSpec):
                parse_shard(bad)


class TestPartitionDeterminism:
    """Any (i, of) partition reproduces the sequential reports exactly."""

    def test_partitions_reproduce_sequential_build_many(self, plan):
        resolved = plan.resolve_seeds(5)
        session = Session()
        sequential = [
            session.build(spec, graph=resolved.host_graph(key))
            for spec, key in zip(resolved.specs, resolved.host_keys)
        ]
        reference = report_docs(sequential)
        for of in (1, 2, 3, 4):
            envelopes = [run_shard(resolved.shard(i, of)) for i in range(of)]
            merged = merge_shard_reports(envelopes)
            assert report_docs(merged) == reference, f"partition of={of}"

    def test_partition_preserves_seeds_and_fingerprints(self, plan):
        # The sequential path derives seeds on the fly from the session
        # root; the sharded path bakes them into the plan. Same seeds,
        # same RNG fingerprints, either way.
        session = Session(seed=11)
        sequential = [
            session.build(spec, graph=plan.host_graph(key))
            for spec, key in zip(plan.specs, plan.host_keys)
        ]
        resolved = plan.resolve_seeds(11)
        envelopes = [run_shard(resolved.shard(i, 3)) for i in range(3)]
        merged = merge_shard_reports(envelopes)
        assert [r.resolved_seed for r in merged] == [
            r.resolved_seed for r in sequential
        ]
        assert [r.rng_fingerprint for r in merged] == [
            r.rng_fingerprint for r in sequential
        ]
        assert [r.size for r in merged] == [r.size for r in sequential]

    def test_hash_seed_varied_subprocess_partition(self, tmp_path):
        """Shards run under different PYTHONHASHSEEDs merge identically.

        String vertex labels make set/dict iteration order hash-dependent
        unless every draw is canonically ordered; the merged sweep result
        must not care which process ran which shard.
        """
        base = connected_gnp_graph(16, 0.3, seed=3)
        edges = [[f"v{u}", f"v{v}", w] for u, v, w in base.edges()]
        payload = json.dumps(edges)
        outputs = set()
        for hashseed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT, payload],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


_HASHSEED_SCRIPT = """
import json, sys
from repro import FaultModel, SpannerSpec, SweepPlan
from repro.graph import Graph
from repro.sweep import merge_shard_reports, run_shard

g = Graph()
for u, v, w in json.loads(sys.argv[1]):
    g.add_edge(u, v, w)
specs = [
    SpannerSpec("baswana-sen", stretch=3, graph=g),
    SpannerSpec("thorup-zwick", stretch=3, graph=g),
    SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1),
                params={"schedule": "light", "constant": 1.0}, graph=g),
]
plan = SweepPlan.build(specs).resolve_seeds(9)
envelopes = [run_shard(plan.shard(i, 2)) for i in range(2)]
merged = merge_shard_reports(envelopes)
print(json.dumps([r.to_dict() for r in merged], sort_keys=True))
"""


class TestRunSweep:
    def test_workers_do_not_change_bytes(self, plan, tmp_path):
        sequential = run_sweep(plan, workers=1, seed=4)
        parallel = run_sweep(
            plan, workers=2, seed=4, reports_dir=str(tmp_path / "rp")
        )
        assert report_docs(parallel) == report_docs(sequential)
        files = sorted(os.listdir(tmp_path / "rp"))
        assert files == ["shard-0.json", "shard-1.json"]
        # Merging the persisted envelope files reproduces the same bytes.
        merged = merge_shard_reports(
            [str(tmp_path / "rp" / name) for name in files]
        )
        assert report_docs(merged) == report_docs(sequential)

    def test_include_spanner_round_trips_edges(self, hosts):
        g1, _ = hosts
        plan = SweepPlan.build(
            [SpannerSpec("greedy", stretch=3, seed=1, graph=g1)]
        )
        (report,) = run_sweep(plan, workers=1, include_spanner=True)
        direct = Session().build(
            SpannerSpec("greedy", stretch=3, seed=1), graph=g1
        )
        assert sorted(report.spanner.edges()) == sorted(direct.spanner.edges())

    def test_envelope_snapshot_accounting(self, plan):
        # Host-grouped execution: a shard never builds the same host's
        # CSR snapshot twice.
        resolved = plan.resolve_seeds(0)
        for i in range(2):
            envelope = run_shard(resolved.shard(i, 2))
            assert (
                envelope["timing"]["snapshot_builds"]
                <= len(set(resolved.shard(i, 2).host_keys))
            )

    def test_run_shard_rejects_unresolved(self, plan):
        with pytest.raises(InvalidSpec):
            run_shard(plan)


class TestMerge:
    def make_envelopes(self, plan, of=3):
        resolved = plan.resolve_seeds(2)
        return [run_shard(resolved.shard(i, of)) for i in range(of)]

    def test_missing_shard_is_an_error(self, plan):
        envelopes = self.make_envelopes(plan)
        with pytest.raises(InvalidSpec) as excinfo:
            merge_shard_reports(envelopes[:-1])
        assert "cover" in str(excinfo.value)

    def test_overlapping_shards_are_an_error(self, plan):
        envelopes = self.make_envelopes(plan)
        with pytest.raises(InvalidSpec) as excinfo:
            merge_shard_reports(envelopes + [envelopes[0]])
        assert "disjoint" in str(excinfo.value)

    def test_divergent_path_host_content_changes_fingerprint(
        self, hosts, tmp_path
    ):
        """Shards run against different host.json copies must not merge."""
        from repro.graph import dump_json

        path = str(tmp_path / "host.json")
        dump_json(hosts[0], path)
        spec = SpannerSpec("greedy", stretch=3, seed=1, graph=path)
        before = SweepPlan.build([spec]).fingerprint()
        dump_json(hosts[1], path)  # same path, different graph
        after = SweepPlan.build([spec]).fingerprint()
        assert before != after

    def test_mixed_plans_are_an_error(self, plan, hosts):
        envelopes = self.make_envelopes(plan)
        other = SweepPlan.build(
            [SpannerSpec("greedy", stretch=3, seed=1, graph=hosts[0])]
        ).resolve_seeds(0)
        alien = run_shard(other.shard(0, 1))
        with pytest.raises(InvalidSpec) as excinfo:
            merge_shard_reports(envelopes + [alien])
        assert "different plans" in str(excinfo.value)

    def test_empty_merge_is_an_error(self):
        with pytest.raises(InvalidSpec):
            merge_shard_reports([])

    @pytest.mark.parametrize(
        "case", ["mixed-spanners", "version", "format", "short-wall-times"]
    )
    def test_malformed_or_mixed_envelopes_are_refused(self, plan, case):
        # Shard 0 is always well-formed; shard 1 is broken one way each.
        resolved = plan.resolve_seeds(2)
        envelopes = [
            run_shard(
                resolved.shard(i, 2),
                include_spanner=case == "mixed-spanners" and i == 0,
            )
            for i in range(2)
        ]
        bad = envelopes[1]
        if case == "version":
            bad["version"] = 99
        elif case == "format":
            bad["format"] = "nope"
        elif case == "short-wall-times":
            bad["timing"]["wall_times_s"].pop()
        with pytest.raises(InvalidSpec, match="shard 1/2"):
            merge_shard_reports(envelopes)

    def test_envelope_files_round_trip(self, plan, tmp_path):
        envelope = self.make_envelopes(plan, of=1)[0]
        path = save_shard_report(envelope, str(tmp_path))
        assert load_shard_report(path) == envelope
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "not-a-shard"}')
        with pytest.raises(InvalidSpec):
            load_shard_report(str(bogus))


class TestEmitter:
    def test_refuses_unsupported_points_by_name(self, hosts):
        table = {"h": hosts[0]}
        with pytest.raises(InvalidSpec) as excinfo:
            emit_grid_plan(["baswana-sen"], [3], [1], table)
        message = str(excinfo.value)
        assert "baswana-sen" in message and "r=1" in message
        with pytest.raises(InvalidSpec) as excinfo:
            emit_grid_plan(["ft2-approx"], [3], [1], table)
        assert "stretch" in str(excinfo.value)

    def test_skip_unsupported_drops_points(self, hosts):
        plan = emit_grid_plan(
            ["greedy", "theorem21"], [3], [0, 1], {"h": hosts[0]},
            skip_unsupported=True,
        )
        # greedy serves only r=0; theorem21 serves both — and the dropped
        # point is recorded, so an incomplete grid never reads as full.
        assert len(plan) == 3
        assert plan.is_resolved
        assert len(plan.skipped) == 1 and "greedy" in plan.skipped[0]

    def test_seeds_axis(self, hosts):
        plan = emit_grid_plan(
            ["greedy"], [3], [0], {"h": hosts[0]}, seeds=3, seed_base=10
        )
        assert [spec.seed for spec in plan.specs] == [10, 11, 12]

    def test_all_unsupported_is_an_error(self, hosts):
        with pytest.raises(InvalidSpec):
            emit_grid_plan(
                ["baswana-sen"], [4], [0], {"h": hosts[0]},
                skip_unsupported=True,
            )

    def test_none_fault_kind_rejects_positive_r(self, hosts):
        """r=1 points must never silently degrade to faultless specs."""
        with pytest.raises(InvalidSpec) as excinfo:
            emit_grid_plan(
                ["greedy"], [3], [1], {"h": hosts[0]}, fault_kind="none"
            )
        assert "r=0" in str(excinfo.value)

    def test_matrix_agrees_with_emitter(self, hosts):
        """The coverage matrix and the refusals share one predicate."""
        table = {"h": hosts[0]}
        for row in coverage_matrix(stretches=(2, 3), kinds=("none", "vertex")):
            algorithm = row["algorithm"]
            if algorithm.startswith("distributed"):
                continue  # LOCAL simulators are slow; domain logic is shared
            for kind_stretch, supported in row.items():
                if kind_stretch == "algorithm":
                    continue
                kind, k_text = kind_stretch.split("/k=")
                rs = [0] if kind == "none" else [1]
                emit = lambda: emit_grid_plan(
                    [algorithm], [float(k_text)], rs, table, fault_kind=kind
                    if kind != "none" else "vertex",
                )
                if supported:
                    assert len(emit()) == 1
                else:
                    with pytest.raises(InvalidSpec):
                        emit()


class TestAdaptiveRegistration:
    def test_matches_direct_call(self, hosts):
        from repro import fault_tolerant_spanner_until_valid
        from repro.core import sampled_fault_check

        g1, _ = hosts
        report = Session().build(
            SpannerSpec(
                "theorem21", stretch=3, faults=FaultModel.vertex(1),
                seed=6, params={"until_valid": {"trials": 15, "seed": 2}},
            ),
            graph=g1,
        )
        direct = fault_tolerant_spanner_until_valid(
            g1, 3, 1,
            lambda u: sampled_fault_check(u, g1, 3, 1, trials=15, seed=2),
            seed=6,
        )
        assert sorted(report.spanner.edges()) == sorted(direct.spanner.edges())
        assert report.stats["iterations"] == direct.stats.iterations
        assert report.stats["until_valid"]["trials"] == 15

    def test_rejects_mistyped_until_valid_values(self, hosts):
        """JSON-carried knobs with string-typed numbers fail actionably."""
        with pytest.raises(InvalidSpec) as excinfo:
            Session().build(
                SpannerSpec(
                    "theorem21", stretch=3,
                    faults=FaultModel.vertex(1), seed=1,
                    params={"until_valid": {"trials": "30"}},
                ),
                graph=hosts[0],
            )
        assert "trials" in str(excinfo.value)

    def test_rejects_unknown_until_valid_keys(self, hosts):
        with pytest.raises(InvalidSpec) as excinfo:
            Session().build(
                SpannerSpec(
                    "theorem21", stretch=3,
                    faults=FaultModel.vertex(1), seed=1,
                    params={"until_valid": {"trails": 3}},
                ),
                graph=hosts[0],
            )
        assert "trails" in str(excinfo.value)

    def test_requires_faults(self, hosts):
        with pytest.raises(InvalidSpec):
            Session().build(
                SpannerSpec("theorem21", stretch=3, seed=1,
                            params={"until_valid": {}}),
                graph=hosts[0],
            )

    def test_rides_sweep_plans(self, hosts):
        plan = SweepPlan.build(
            [
                SpannerSpec(
                    "theorem21", stretch=3,
                    faults=FaultModel.vertex(1), seed=4,
                    params={"until_valid": {"trials": 10, "seed": 1}},
                    graph=hosts[0],
                )
            ]
        )
        clone = SweepPlan.from_json(plan.to_json())
        (a,) = run_sweep(plan, workers=1)
        (b,) = run_sweep(clone, workers=1)
        assert a.to_dict() == b.to_dict()


class TestCrashSafeShardReports:
    """save_shard_report is atomic: a shard file is absent or complete."""

    def make_envelope(self, plan):
        return run_shard(plan.resolve_seeds(0).shard(0, 2))

    def test_crash_before_rename_leaves_nothing(
        self, plan, tmp_path, monkeypatch
    ):
        envelope = self.make_envelope(plan)
        reports_dir = str(tmp_path / "rp")

        def killed(src, dst):
            raise OSError("killed between write and rename")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_shard_report(envelope, reports_dir)
        # neither a partial shard-<i>.json nor leftover temp garbage
        assert os.listdir(reports_dir) == []

    def test_unserializable_envelope_leaves_nothing(self, plan, tmp_path):
        envelope = self.make_envelope(plan)
        envelope["reports"] = object()  # not JSON-able
        reports_dir = str(tmp_path / "rp")
        with pytest.raises(TypeError):
            save_shard_report(envelope, reports_dir)
        assert not os.path.exists(
            os.path.join(reports_dir, "shard-0.json")
        )

    def test_successful_save_is_complete_and_canonical(self, plan, tmp_path):
        envelope = self.make_envelope(plan)
        reports_dir = str(tmp_path / "rp")
        path = save_shard_report(envelope, reports_dir)
        assert os.listdir(reports_dir) == ["shard-0.json"]
        assert load_shard_report(path) == json.loads(
            json.dumps(envelope)  # round-trip through JSON types
        )
        assert envelope["attempts"] == 1

    def test_temp_names_never_match_the_merge_glob(self, plan, tmp_path):
        """A temp file surviving a hard kill (no cleanup ran) must be
        invisible to `repro merge`'s shard-*.json discovery."""
        import glob

        envelope = self.make_envelope(plan)
        reports_dir = str(tmp_path / "rp")
        save_shard_report(envelope, reports_dir)
        stray = os.path.join(reports_dir, "shard-0.json.a1b2c3.tmp")
        with open(stray, "w") as handle:
            handle.write("{ truncated")
        found = glob.glob(os.path.join(reports_dir, "shard-*.json"))
        assert [os.path.basename(p) for p in found] == ["shard-0.json"]


class TestWorkerCrashResilience:
    """run_sweep survives crashed workers — real processes, real kills.

    Fault injection is child-side: the scheduler's shard child reads
    ``REPRO_SWEEP_TEST_CRASH_SHARDS`` on its *first* attempt only, so a
    retried shard runs clean and the recovered sweep stays
    byte-identical to the sequential one.
    """

    def test_dead_worker_is_retried_in_a_fresh_child(self, plan, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_SHARDS", "1")
        reports, envelopes = run_sweep(
            plan, workers=3, seed=4, with_envelopes=True
        )
        assert [env["attempts"] for env in envelopes] == [1, 2, 1]
        assert [env["timed_out"] for env in envelopes] == [False] * 3
        monkeypatch.delenv("REPRO_SWEEP_TEST_CRASH_SHARDS")
        # the retried sweep is byte-identical to the sequential one
        sequential = run_sweep(plan, workers=1, seed=4)
        assert report_docs(reports) == report_docs(sequential)

    def test_retried_envelopes_persist_and_merge(
        self, plan, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_SHARDS", "0,2")
        reports_dir = str(tmp_path / "rp")
        run_sweep(plan, workers=3, seed=4, reports_dir=reports_dir)
        envelopes = [
            load_shard_report(os.path.join(reports_dir, name))
            for name in sorted(os.listdir(reports_dir))
        ]
        assert [env["attempts"] for env in envelopes] == [2, 1, 2]
        merged = merge_shard_reports(envelopes)
        monkeypatch.delenv("REPRO_SWEEP_TEST_CRASH_SHARDS")
        assert report_docs(merged) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )

    def test_twice_failed_shard_raises_sweep_error(self):
        """A shard that fails on both attempts (a build-time refusal here:
        wrong fault kind for the algorithm) is named, with its captured
        exception, instead of merging as missing indices."""
        from repro.errors import ShardQuarantined, SweepError

        host = connected_gnp_graph(16, 0.3, seed=1)
        poison = SweepPlan.build(
            [
                SpannerSpec("greedy", stretch=3, graph=host),
                SpannerSpec(
                    "theorem21", stretch=3, graph=host,
                    params={"until_valid": {"trials": 30}},
                ),
            ],
            name="poison",
        )
        with pytest.raises(SweepError, match=r"shard 1 \(2 attempts") as info:
            run_sweep(poison, workers=2, seed=4)
        assert isinstance(info.value, ShardQuarantined)
        assert "fault kinds" in str(info.value)


class TestShardTimeout:
    """A hung worker is killed at the deadline and retried out of process."""

    def test_hung_worker_is_killed_and_retried(self, plan, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_SHARDS", "1")
        reports, envelopes = run_sweep(
            plan, workers=2, seed=4, with_envelopes=True, shard_timeout_s=12.0
        )
        assert [env["attempts"] for env in envelopes] == [1, 2]
        assert [env["timed_out"] for env in envelopes] == [False, True]
        monkeypatch.delenv("REPRO_SWEEP_TEST_HANG_SHARDS")
        sequential = run_sweep(plan, workers=1, seed=4)
        assert report_docs(reports) == report_docs(sequential)

    def test_timeout_resolution_and_validation(self, plan):
        for bad in (0.0, -1.0):
            for workers in (1, 2):
                with pytest.raises(InvalidSpec, match="positive"):
                    run_sweep(plan, workers=workers, shard_timeout_s=bad)


def _highs_workers_stoppable() -> bool:
    """Whether scipy's HiGHS bindings can stop HiGHS's worker threads."""
    import scipy.optimize  # noqa: F401  (loads the bindings)

    core = sys.modules.get("scipy.optimize._highspy._core")
    return hasattr(getattr(core, "_Highs", None), "resetGlobalScheduler")


#: Earlier tests solved LPs in this process. Where HiGHS's workers
#: cannot be stopped they outlive a fork (on 3+ CPUs), so children spawn.
forkable = pytest.mark.skipif(
    not _highs_workers_stoppable(),
    reason="scipy's HiGHS bindings cannot stop HiGHS's worker threads",
)


def _fork_warnings(caught) -> list:
    return [
        w for w in caught
        if issubclass(w.category, DeprecationWarning) and "fork()" in str(w.message)
    ]


@pytest.mark.skipif(sys.platform != "linux", reason="children fork only on Linux")
class TestShardStartMethod:
    """Shard children fork when no other thread outlives a fork, else spawn."""

    @pytest.fixture
    def methods(self, monkeypatch):
        """Every start method the supervisor asks multiprocessing for."""
        import multiprocessing

        seen = []
        real = multiprocessing.get_context

        def get_context(method=None):
            seen.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        return seen

    @pytest.fixture
    def forks(self, monkeypatch):
        """The OS threads left in this process just after each fork.

        CPython 3.12+ counts the same threads, at the same point, to warn
        that a fork may deadlock its child; 1 is a safe fork on any version.
        """
        seen = []
        real = os.fork

        def fork():
            pid = real()
            if pid:
                seen.append(len(os.listdir("/proc/self/task")))
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return seen

    @pytest.fixture
    def parked_thread(self):
        import threading

        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        yield thread
        release.set()
        thread.join(5.0)
        assert not thread.is_alive()

    @pytest.fixture
    def native_thread(self):
        """An OS thread unknown to ``threading`` (a C ``sleep``), as an
        extension's pool without a pre-fork handler would leave."""
        import ctypes

        libc = ctypes.CDLL(None)
        libc.pthread_create.argtypes = [
            ctypes.POINTER(ctypes.c_ulong), ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p,
        ]
        libc.pthread_cancel.argtypes = [ctypes.c_ulong]
        libc.pthread_join.argtypes = [ctypes.c_ulong, ctypes.c_void_p]
        for fn in (libc.pthread_create, libc.pthread_cancel, libc.pthread_join):
            fn.restype = ctypes.c_int
        thread = ctypes.c_ulong()
        sleep = ctypes.cast(libc.sleep, ctypes.c_void_p)
        assert libc.pthread_create(ctypes.byref(thread), None, sleep, 60) == 0
        yield thread
        assert libc.pthread_cancel(thread) == 0  # sleep() is a cancellation point
        assert libc.pthread_join(thread, None) == 0

    @pytest.fixture
    def lp_plan(self):
        from repro.graph import gnp_random_digraph

        host = gnp_random_digraph(12, 0.4, seed=5, cost_range=(1.0, 10.0))
        return SweepPlan.build(
            [
                SpannerSpec("ft2-approx", stretch=2, faults=FaultModel.vertex(r),
                            graph=host)
                for r in (1, 2, 1)
            ],
            name="lp-plan",
        )

    @forkable
    def test_one_thread_forks_without_a_fork_warning(self, lp_plan, methods, forks):
        import threading
        import warnings

        import numpy as np

        np.ones((200, 200)) @ np.ones((200, 200))  # start the BLAS pool
        assert threading.active_count() == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = run_sweep(lp_plan, workers=2, seed=4, include_spanner=True)
        assert methods == ["fork", "fork"]
        assert forks and set(forks) == {1}
        assert not _fork_warnings(caught)
        assert report_docs(reports) == report_docs(
            run_sweep(lp_plan, workers=1, seed=4, include_spanner=True)
        )

    @forkable
    def test_forks_after_an_in_process_solve_on_threaded_highs(
        self, lp_plan, methods, forks
    ):
        """HiGHS keeps its workers after a solve and has no pre-fork
        handler; the LP backend's stops them, so the fork stays safe."""
        import warnings

        import numpy as np
        from scipy.optimize._highspy import _core

        # The scheduler HiGHS would start on a 5- or 6-CPU machine.
        _core._Highs.resetGlobalScheduler(True)
        highs = _core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("threads", 3)
        lp = _core.HighsLp()
        lp.num_col_, lp.num_row_ = 1, 0
        lp.col_cost_ = np.array([1.0])
        lp.col_lower_, lp.col_upper_ = np.array([0.0]), np.array([1.0])
        highs.passModel(lp)
        highs.run()
        before = len(os.listdir("/proc/self/task"))
        assert before >= 3  # this thread and HiGHS's two workers at least
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = run_sweep(lp_plan, workers=2, seed=4, include_spanner=True)
        assert methods == ["fork", "fork"]
        assert forks and set(forks) == {1}
        assert not _fork_warnings(caught)
        assert report_docs(reports) == report_docs(
            run_sweep(lp_plan, workers=1, seed=4, include_spanner=True)
        )

    def test_a_native_thread_that_outlives_fork_spawns(
        self, plan, methods, native_thread
    ):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = run_sweep(plan, workers=2, seed=4)
        assert methods == ["spawn", "spawn"]
        assert not _fork_warnings(caught)  # the probe fork's is its own
        assert report_docs(reports) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )

    def test_another_live_thread_spawns_and_retries(
        self, plan, methods, parked_thread, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_SHARDS", "1")
        reports, envelopes = run_sweep(
            plan, workers=2, seed=4, with_envelopes=True
        )
        monkeypatch.delenv("REPRO_SWEEP_TEST_CRASH_SHARDS")
        assert methods == ["spawn"] * 3
        assert [env["attempts"] for env in envelopes] == [1, 2]
        assert report_docs(reports) == report_docs(
            run_sweep(plan, workers=1, seed=4)
        )

    @forkable
    def test_caller_sigterm_handler_never_runs_in_a_killed_child(
        self, plan, methods, tmp_path, monkeypatch
    ):
        import signal

        marker = tmp_path / "sigterm-ran"

        def handler(_signum, _frame):
            marker.write_text(str(os.getpid()))

        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_SHARDS", "1")
        previous = signal.signal(signal.SIGTERM, handler)
        try:
            _reports, envelopes = run_sweep(
                plan, workers=2, seed=4, with_envelopes=True, shard_timeout_s=6.0
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert methods == ["fork"] * 3
        assert [env["timed_out"] for env in envelopes] == [False, True]
        assert not marker.exists()


class TestCorruptEnvelope:
    """Truncated shard JSON names the file, not just a parse offset."""

    def test_truncated_envelope_names_the_file(self, tmp_path):
        from repro.errors import SweepError

        path = str(tmp_path / "shard-0.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "repro-sweep-shard", "repor')
        with pytest.raises(
            SweepError, match=r"shard-0\.json.*truncated or corrupt"
        ):
            load_shard_report(path)

    def test_wrong_format_tag_is_still_invalid_spec(self, tmp_path):
        path = str(tmp_path / "shard-0.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(InvalidSpec, match="not a sweep-shard envelope"):
            load_shard_report(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "repro-sweep-shard", "version": 99}, handle)
        with pytest.raises(InvalidSpec, match="version 99"):
            load_shard_report(path)
