"""CLI behaviour: host files / build / approximate / verify round trips."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.graph import load_json


def materialize(path, name, *params, seed=None, flags=()):
    """``repro hosts NAME --param K=V ... [--seed S] --materialize PATH``."""
    argv = ["hosts", name]
    for param in params:
        argv += ["--param", param]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main([*argv, "--materialize", path, *flags])


#: sha256 of the file the former ``repro generate`` wrote for each of its
#: seven kinds, with the arguments these tests gave it (its defaults were
#: n=30, p=0.3, seed 0): ``hosts --materialize`` must write those bytes.
GENERATE_DIGESTS = {
    "gnp": (["n=30", "p=0.3"], None,
            "7e79d814ca28a3c84707373e8fcdfcf460c944bb64063bce307a823624db9a11"),
    "gnp-connected": (
        ["n=14", "p=0.5"], 3,
        "11717e9819e53d571514dcbb88d6b88ac54e92184e7560390371b293239153ea"),
    "gnp-digraph": (
        ["n=10", "p=0.5"], 4,
        "b3bdfcd1290d50e9fe824737dd860b4b63aa2023b8498be7e5746d644155cfba"),
    "complete": (
        ["n=30"], None,
        "4a71e533131a61e9c950a695227d2e5a3d161b1d9c9a8e647f34944ddba76f28"),
    "grid": (
        ["rows=4", "cols=4"], None,
        "99771d15e37c9205a2ca3d1aa67e90ed56e5a98c78714b309b00cda3cc7d39c7"),
    "regular": (
        ["n=12", "d=3"], None,
        "9e44907de11e3ee9b506ecab586797fc78d50446a0b88cab44e248b9e260def3"),
    "geometric": (
        ["n=15", "radius=0.5"], None,
        "122349178ec7d8158adc7373d8f6a4b64760bc345938cad42b7933036fc400c6"),
}


@pytest.fixture
def host_path(tmp_path):
    path = str(tmp_path / "host.json")
    assert materialize(path, "gnp-connected", "n=14", "p=0.5", seed=3) == 0
    return path


@pytest.fixture
def digraph_path(tmp_path):
    path = str(tmp_path / "mesh.json")
    assert materialize(path, "gnp-digraph", "n=10", "p=0.5", seed=4) == 0
    return path


class TestHostsMaterialize:
    def test_writes_valid_json(self, host_path):
        graph = load_json(host_path)
        assert graph.num_vertices == 14
        assert not graph.directed

    @pytest.mark.parametrize("name", list(GENERATE_DIGESTS))
    def test_writes_pinned_bytes(self, tmp_path, name):
        params, seed, digest = GENERATE_DIGESTS[name]
        path = str(tmp_path / f"{name}.json")
        assert materialize(path, name, *params, seed=seed) == 0
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest

    def test_digraph_kind(self, digraph_path):
        assert load_json(digraph_path).directed

    def test_json_reports_materialized(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        assert materialize(path, "gnp", "n=12", "p=0.3", flags=["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["materialized"] == {
            "n": 12, "m": load_json(path).num_edges, "directed": False,
            "out": path,
        }

    def test_hosts_is_the_only_host_writer(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "gnp", "--out", str(tmp_path / "g.json")])
        assert "invalid choice: 'generate'" in capsys.readouterr().err


class TestFtSpanner:
    def test_build_verify_export(self, host_path, tmp_path, capsys):
        out = str(tmp_path / "spanner.json")
        dot = str(tmp_path / "spanner.dot")
        code = main(
            ["ft-spanner", host_path, "--k", "3", "--r", "1",
             "--seed", "5", "--out", out, "--dot", dot,
             "--verify", "exhaustive"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "exhaustively valid" in printed
        spanner = load_json(out)
        host = load_json(host_path)
        assert spanner.num_edges <= host.num_edges
        dot_text = open(dot).read()
        assert dot_text.startswith("graph repro {")

    def test_sampled_verification_default(self, host_path, capsys):
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "6"]) == 0
        assert "sampled-valid" in capsys.readouterr().out

    def test_insufficient_iterations_fail_exit_code(self, host_path):
        # One iteration cannot be r=2 fault tolerant on this graph.
        code = main(
            ["ft-spanner", host_path, "--r", "2", "--iterations", "1",
             "--seed", "7", "--verify", "exhaustive"]
        )
        assert code == 2


class TestFt2Approx:
    def test_approx_and_export(self, digraph_path, tmp_path, capsys):
        out = str(tmp_path / "two.json")
        assert main(["ft2-approx", digraph_path, "--r", "1", "--seed", "8",
                     "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "LP (4) optimum" in printed
        assert load_json(out).directed


class TestVerify:
    def test_verify_modes(self, host_path, tmp_path):
        spanner_path = str(tmp_path / "sp.json")
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "9",
                     "--out", spanner_path]) == 0
        for mode in ("exhaustive", "sampled"):
            assert main(["verify", host_path, spanner_path, "--k", "3",
                         "--r", "1", "--mode", mode]) == 0

    def test_verify_fail(self, host_path, tmp_path, capsys):
        # An empty spanner fails verification.
        from repro.graph import Graph, dump_json, load_json as lj

        host = lj(host_path)
        empty = Graph()
        empty.add_vertices(host.vertices())
        empty_path = str(tmp_path / "empty.json")
        dump_json(empty, empty_path)
        code = main(["verify", host_path, empty_path, "--k", "3", "--r", "0",
                     "--mode", "exhaustive"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_lemma31_mode(self, digraph_path, tmp_path):
        spanner_path = str(tmp_path / "two.json")
        assert main(["ft2-approx", digraph_path, "--r", "1", "--seed", "10",
                     "--out", spanner_path]) == 0
        assert main(["verify", digraph_path, spanner_path, "--k", "2",
                     "--r", "1", "--mode", "lemma31"]) == 0

    @pytest.mark.parametrize("k", [None, "3", "1.5"])
    def test_lemma31_mode_needs_k_two(self, digraph_path, tmp_path, capsys, k):
        """Lemma 3.1 decides 2-spanners only; it never read --k."""
        spanner_path = str(tmp_path / "two.json")
        assert main(["ft2-approx", digraph_path, "--r", "1", "--seed", "10",
                     "--out", spanner_path]) == 0
        capsys.readouterr()
        k_flag = [] if k is None else ["--k", k]
        assert main(["verify", digraph_path, spanner_path, *k_flag,
                     "--r", "1", "--mode", "lemma31"]) == 1
        assert "needs --k 2" in capsys.readouterr().err


def test_error_reporting(tmp_path, capsys):
    # materializing a regular graph with odd n * d surfaces a clean error
    code = materialize(str(tmp_path / "x.json"), "regular", "n=7", "d=3")
    assert code == 1
    assert "error:" in capsys.readouterr().err


class TestSharedFlags:
    """--seed/--method/--json come from one parent parser on every command."""

    @pytest.mark.parametrize("method", ["auto", "csr", "dict"])
    def test_method_flag_everywhere(self, host_path, capsys, method):
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "6",
                     "--method", method]) == 0
        capsys.readouterr()

    def test_method_flag_on_hosts(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        assert materialize(path, "gnp", "n=30", "p=0.3",
                           flags=["--method", "dict"]) == 0
        capsys.readouterr()

    def test_json_ft_spanner(self, host_path, capsys):
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "5",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["algorithm"] == "theorem21"
        assert doc["verification"]["ok"] is True
        assert "wall_time_s" not in doc  # byte-stable output

    def test_json_ft2_approx(self, digraph_path, capsys):
        assert main(["ft2-approx", digraph_path, "--r", "1", "--seed", "8",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["algorithm"] == "ft2-approx"
        assert doc["stats"]["lp_objective"] > 0

    def test_json_verify(self, host_path, tmp_path, capsys):
        spanner_path = str(tmp_path / "sp.json")
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "9",
                     "--out", spanner_path]) == 0
        capsys.readouterr()
        assert main(["verify", host_path, spanner_path, "--k", "3", "--r", "1",
                     "--mode", "sampled", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"mode": "sampled", "k": 3.0, "r": 1, "ok": True}


class TestRunSubcommand:
    def test_run_reproduces_ft_spanner_byte_for_byte(
        self, host_path, tmp_path, capsys
    ):
        """Acceptance gate: `repro run spec.json` == `repro ft-spanner ...`."""
        spec_path = str(tmp_path / "spec.json")
        assert main(["ft-spanner", host_path, "--k", "3", "--r", "1",
                     "--seed", "5", "--spec-out", spec_path, "--json"]) == 0
        direct = capsys.readouterr().out
        assert main(["run", spec_path, "--json"]) == 0
        via_spec = capsys.readouterr().out
        assert direct == via_spec

    def test_run_executes_handwritten_spec(self, host_path, tmp_path, capsys):
        spec_path = str(tmp_path / "bs.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": "repro-spec",
                    "version": 1,
                    "algorithm": "baswana-sen",
                    "stretch": 3,
                    "seed": 2,
                    "graph": host_path,
                },
                handle,
            )
        assert main(["run", spec_path, "--verify", "none", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["algorithm"] == "baswana-sen"
        assert doc["size"] > 0

    def test_run_exports_spanner(self, host_path, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        out_path = str(tmp_path / "sp.json")
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "5",
                     "--spec-out", spec_path]) == 0
        capsys.readouterr()
        assert main(["run", spec_path, "--out", out_path]) == 0
        assert load_json(out_path).num_edges > 0

    def test_run_seed_override_changes_the_build(
        self, host_path, tmp_path, capsys
    ):
        spec_path = str(tmp_path / "spec.json")
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "5",
                     "--spec-out", spec_path, "--json"]) == 0
        capsys.readouterr()
        assert main(["run", spec_path, "--seed", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["resolved_seed"] == 6
        assert doc["spec"]["seed"] == 6

    def test_run_method_override(self, host_path, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        assert main(["ft-spanner", host_path, "--r", "1", "--seed", "5",
                     "--spec-out", spec_path]) == 0
        capsys.readouterr()
        assert main(["run", spec_path, "--method", "dict", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["method"] == "dict"
        assert doc["resolved_method"] == "dict"

    def test_run_explicit_verify_mode_respected(
        self, digraph_path, tmp_path, capsys
    ):
        spec_path = str(tmp_path / "two.json")
        assert main(["ft2-approx", digraph_path, "--r", "1", "--seed", "8",
                     "--spec-out", spec_path]) == 0
        capsys.readouterr()
        assert main(["run", spec_path, "--verify", "exhaustive",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["mode"] == "exhaustive"

    @pytest.mark.parametrize("algorithm", ["ft2-stream", "distributed-ft2"])
    def test_run_checks_fixed_stretch_two_rows_with_lemma31(
        self, algorithm, tmp_path, capsys
    ):
        """Every fixed-stretch-2 row gets the Lemma 3.1 check by default.

        Its host weights are costs, so the length-based sampled check
        rejects these valid spanners of a cost-weighted host.
        """
        host = str(tmp_path / "costs.json")
        assert materialize(host, "gnp-digraph", "n=12", "p=0.4",
                           "cost_range=[1.0,10.0]", seed=3) == 0
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"format": "repro-spec", "version": 1,
                       "algorithm": algorithm, "stretch": 2,
                       "faults": {"kind": "vertex", "r": 1}, "seed": 5,
                       "graph": host}, handle)
        capsys.readouterr()
        assert main(["run", spec_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"] == {"mode": "lemma31", "ok": True}

    def test_run_refuses_lemma31_on_rows_that_read_lengths(self, tmp_path, capsys):
        """theorem21 reads weights as lengths: its six kept 10-weight
        detours fail u-v (weight 1) at stretch 2, which a unit-length
        Lemma 3.1 count would pass."""
        from repro.graph import Graph, dump_json

        host = Graph()
        host.add_edge("u", "v", 1.0)
        for mid in "xyz":
            host.add_edge("u", mid, 10.0)
            host.add_edge(mid, "v", 10.0)
        host_path = str(tmp_path / "detours.json")
        dump_json(host, host_path)
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"format": "repro-spec", "version": 1,
                       "algorithm": "theorem21", "stretch": 2,
                       "faults": {"kind": "vertex", "r": 1}, "seed": 76,
                       "params": {"iterations": 4}, "graph": host_path}, handle)
        capsys.readouterr()
        assert main(["run", spec_path, "--verify", "lemma31"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["run", spec_path, "--verify", "exhaustive"]) == 2

    def test_run_bad_spec_is_clean_error(self, tmp_path, capsys):
        spec_path = str(tmp_path / "bad.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "repro-spec", "algorithm": "nope"}')
        assert main(["run", spec_path]) == 1
        assert "available algorithms" in capsys.readouterr().err


class TestAlgorithms:
    def test_table_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        printed = capsys.readouterr().out
        assert "theorem21" in printed and "baswana-sen" in printed

    def test_json_capabilities(self, capsys):
        assert main(["algorithms", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in doc["algorithms"]]
        assert "ft2-approx" in names
        assert all("fault_tolerant" in row for row in doc["algorithms"])
        # One Theorem 2.1 row serves both fault kinds.
        assert len(names) == 11
        [theorem21] = [r for r in doc["algorithms"] if r["name"] == "theorem21"]
        assert theorem21["fault_kinds"] == ["none", "vertex", "edge"]


class TestSweep:
    @pytest.fixture
    def plan_path(self, host_path, tmp_path, capsys):
        path = str(tmp_path / "plan.json")
        assert main([
            "sweep", "--emit", path, "--graph", host_path,
            "--algorithms", "theorem21,greedy", "--stretch", "3",
            "--r", "0,1", "--seeds", "2", "--skip-unsupported",
        ]) == 0
        capsys.readouterr()
        return path

    def test_emit_writes_a_resolved_plan(self, plan_path):
        from repro import SweepPlan

        plan = SweepPlan.load(plan_path)
        # theorem21 serves r in {0, 1}, greedy only r=0: 3 points x 2 seeds.
        assert len(plan) == 6
        assert plan.is_resolved

    def test_emit_refuses_unsupported_grid(self, host_path, tmp_path, capsys):
        assert main([
            "sweep", "--emit", str(tmp_path / "bad.json"), "--graph",
            host_path, "--algorithms", "baswana-sen", "--r", "1",
        ]) == 1
        assert "unsupported" in capsys.readouterr().err

    def test_workers_shards_and_merge_agree(self, plan_path, tmp_path, capsys):
        assert main(["sweep", plan_path, "--workers", "1", "--json"]) == 0
        sequential = capsys.readouterr().out
        shard_dir = str(tmp_path / "shards")
        for i in range(2):
            assert main(["sweep", plan_path, "--shard", f"{i}/2",
                         "--reports-dir", shard_dir]) == 0
        capsys.readouterr()
        assert main(["merge", shard_dir, "--json"]) == 0
        merged = capsys.readouterr().out
        assert merged == sequential
        doc = json.loads(merged)
        assert doc["count"] == 6
        assert [r["resolved_seed"] for r in doc["reports"]] == [
            0, 1, 0, 1, 0, 1
        ]

    def test_include_spanner_reaches_the_json_document(
        self, plan_path, tmp_path, capsys
    ):
        shard_dir = str(tmp_path / "shards")
        assert main(["sweep", plan_path, "--workers", "1", "--include-spanner",
                     "--reports-dir", shard_dir, "--json"]) == 0
        swept = capsys.readouterr().out
        with open(f"{shard_dir}/shard-0.json", encoding="utf-8") as handle:
            envelope = json.load(handle)
        spanners = [r["spanner"] for r in json.loads(swept)["reports"]]
        assert spanners == [r["spanner"] for r in envelope["reports"]]
        assert all(s["edges"] for s in spanners)
        # merge of those envelopes and a scheduled run print the same bytes.
        assert main(["merge", shard_dir, "--json"]) == 0
        assert capsys.readouterr().out == swept
        assert main(["sweep", plan_path, "--scheduler", str(tmp_path / "sched"),
                     "--shards", "2", "--workers", "1", "--include-spanner",
                     "--json"]) == 0
        assert capsys.readouterr().out == swept
        # Without the flag no report carries one.
        assert main(["sweep", plan_path, "--workers", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not any("spanner" in r for r in doc["reports"])

    def test_merge_of_partial_shards_fails_cleanly(
        self, plan_path, tmp_path, capsys
    ):
        shard_dir = str(tmp_path / "partial")
        assert main(["sweep", plan_path, "--shard", "0/2",
                     "--reports-dir", shard_dir]) == 0
        capsys.readouterr()
        assert main(["merge", shard_dir]) == 1
        assert "cover" in capsys.readouterr().err

    def test_coverage_matrix_json(self, capsys):
        assert main(["sweep", "--coverage", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {row["algorithm"]: row for row in doc["coverage"]}
        assert rows["theorem21"]["vertex/k=3"] is True
        assert rows["greedy"]["vertex/k=3"] is False

    def test_conflicting_flags_are_refused(self, plan_path, capsys):
        assert main(["sweep", plan_path, "--emit", "x.json"]) == 1
        assert "emit" in capsys.readouterr().err
        assert main(["sweep", plan_path, "--shard", "0/2",
                     "--workers", "4"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_bad_grid_values_are_clean_errors(self, host_path, tmp_path,
                                              capsys):
        out = str(tmp_path / "p.json")
        assert main(["sweep", "--emit", out, "--graph", host_path,
                     "--algorithms", "greedy", "--r", "0",
                     "--stretch", "inf"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["sweep", "--emit", out, "--graph", host_path,
                     "--algorithms", "greedy", "--r", "0",
                     "--params", "{bad"]) == 1
        assert "JSON" in capsys.readouterr().err


class TestScheduledSweep:
    """`sweep --scheduler`, `sweep-worker`, `sweep --status`, and the
    scheduler-aware `merge` — the fault-tolerant work-queue surface."""

    @pytest.fixture
    def plan_path(self, host_path, tmp_path, capsys):
        path = str(tmp_path / "plan.json")
        assert main([
            "sweep", "--emit", path, "--graph", host_path,
            "--algorithms", "theorem21,greedy", "--stretch", "3",
            "--r", "0,1", "--seeds", "2", "--skip-unsupported",
        ]) == 0
        capsys.readouterr()
        return path

    def test_scheduled_run_matches_plain_sweep_bytes(
        self, plan_path, tmp_path, capsys
    ):
        assert main(["sweep", plan_path, "--workers", "1", "--json"]) == 0
        sequential = capsys.readouterr().out
        sched_dir = str(tmp_path / "sched")
        assert main(["sweep", plan_path, "--scheduler", sched_dir,
                     "--shards", "2", "--workers", "1", "--json"]) == 0
        assert capsys.readouterr().out == sequential
        # The directory is resumable: re-running is an idempotent no-op
        # that reproduces the same bytes from the persisted envelopes.
        assert main(["sweep", plan_path, "--scheduler", sched_dir,
                     "--shards", "2", "--workers", "1", "--json"]) == 0
        assert capsys.readouterr().out == sequential
        # ... and merge over the scheduler directory agrees too.
        assert main(["merge", sched_dir, "--json"]) == 0
        assert capsys.readouterr().out == sequential

    def test_init_only_worker_status_pipeline(
        self, plan_path, tmp_path, capsys
    ):
        sched_dir = str(tmp_path / "sched")
        assert main(["sweep", plan_path, "--scheduler", sched_dir,
                     "--shards", "2", "--workers", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["initialized"] is True and doc["shards"] == 2
        assert main(["sweep", "--status", sched_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"]["pending"] == 2
        assert status["complete"] is False
        assert main(["sweep-worker", sched_dir, "--worker-id", "w0",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] == 2 and summary["complete"] is True
        assert main(["sweep", "--status", sched_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"]["done"] == 2 and status["finished"] is True

    def test_quarantine_surfaces_in_status_and_blocks_merge(
        self, host_path, tmp_path, capsys
    ):
        from repro import SpannerSpec, SweepPlan

        # greedy serves no faults; theorem21's adaptive stop requires them
        # — the second shard fails deterministically at build time.
        plan = SweepPlan.build(
            [
                SpannerSpec("greedy", stretch=3, graph=host_path),
                SpannerSpec("theorem21", stretch=3, graph=host_path,
                            params={"until_valid": {}}),
            ],
            name="poison",
        )
        plan_path = str(tmp_path / "poison.json")
        plan.save(plan_path)
        sched_dir = str(tmp_path / "sched")
        assert main(["sweep", plan_path, "--scheduler", sched_dir,
                     "--shards", "2", "--workers", "1", "--max-attempts",
                     "1", "--json"]) == 3
        status = json.loads(capsys.readouterr().out)
        assert status["degraded"] is True
        [entry] = status["quarantined"]
        assert entry["shard"] == 1
        assert "fault kinds" in entry["attempts"][-1]["error"]
        assert main(["sweep", "--status", sched_dir, "--json"]) == 3
        capsys.readouterr()
        assert main(["merge", sched_dir]) == 1
        assert "quarantined" in capsys.readouterr().err

    def test_flag_conflicts_are_refused(self, plan_path, tmp_path, capsys):
        sched_dir = str(tmp_path / "sched")
        assert main(["sweep", plan_path, "--status", sched_dir]) == 1
        assert "--status" in capsys.readouterr().err
        assert main(["sweep", plan_path, "--scheduler", sched_dir,
                     "--shard", "0/2"]) == 1
        assert "sweep-worker" in capsys.readouterr().err
        assert main(["sweep", plan_path, "--workers", "0"]) == 1
        assert "--scheduler" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def dense_path(self, tmp_path):
        path = str(tmp_path / "dense.json")
        assert materialize(path, "gnp-connected", "n=20", "p=0.6", seed=3) == 0
        return path

    @pytest.fixture
    def workload_path(self, dense_path, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        assert main(["workload", dense_path, "--ops", "120",
                     "--read-ratio", "0.7", "--seed", "5",
                     "--out", path]) == 0
        capsys.readouterr()
        return path

    def test_workload_emits_valid_trace(self, workload_path):
        from repro.serve import load_workload

        ops = load_workload(workload_path)
        assert len(ops) == 120

    def test_workload_chaos_flags(self, dense_path, tmp_path, capsys):
        path = str(tmp_path / "chaos.json")
        assert main(["workload", dense_path, "--ops", "50",
                     "--chaos-edges", "6", "--chaos-nodes", "2",
                     "--adversarial", "--seed", "5", "--json",
                     "--out", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chaos_ops"] == 8
        assert doc["adversarial"] is True
        assert doc["ops"] == 58

    @pytest.mark.parametrize("flags", [
        ["--ops", "-5"],
        ["--ops", "20", "--chaos-nodes", "-3", "--adversarial"],
        ["--ops", "20", "--chaos-edges", "-2"],
    ])
    def test_workload_rejects_negative_counts(self, dense_path, tmp_path,
                                              capsys, flags):
        path = str(tmp_path / "neg.json")
        assert main(["workload", dense_path, *flags, "--seed", "5",
                     "--out", path]) == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "neg.json").exists()

    def test_serve_replays_and_stays_valid(
        self, dense_path, workload_path, tmp_path, capsys
    ):
        spanner_out = str(tmp_path / "spanner.json")
        trace_out = str(tmp_path / "results.json")
        assert main(["serve", dense_path, workload_path, "--r", "1",
                     "--seed", "0", "--json", "--out", spanner_out,
                     "--results-out", trace_out]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-serve-result"
        assert doc["summary"]["valid"] is True
        assert doc["summary"]["ops_applied"] == 120
        spanner = load_json(spanner_out)
        assert spanner.num_edges > 0
        with open(trace_out) as handle:
            trace = json.load(handle)
        assert trace["format"] == "repro-serve-trace"
        assert len(trace["results"]) == 120

    def test_serve_policies_and_digest_agreement(
        self, dense_path, workload_path, capsys
    ):
        digests = {}
        for policy in ("tiered", "rebuild-per-op"):
            assert main(["serve", dense_path, workload_path,
                         "--policy", policy, "--final-rebuild",
                         "--seed", "0", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["summary"]["valid"] is True
            digests[policy] = doc["spanner_digest"]
        # after a final full rebuild every policy lands on the same spanner
        assert digests["tiered"] == digests["rebuild-per-op"]

    def test_serve_final_rebuild_matches_from_scratch(
        self, dense_path, workload_path, capsys
    ):
        from repro.serve import (
            apply_mutations,
            load_workload,
            spanner_digest,
            stream_ft2_spanner,
        )

        assert main(["serve", dense_path, workload_path, "--r", "1",
                     "--final-rebuild", "--seed", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        host = load_json(dense_path)
        final = apply_mutations(host, load_workload(workload_path))
        assert doc["spanner_digest"] == spanner_digest(
            stream_ft2_spanner(final, 1)
        )

    def test_serve_refuses_a_trace_with_a_nan_weight(
        self, dense_path, tmp_path, capsys
    ):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"format": "repro-workload", "version": 1, "ops": ['
            '{"type": "ADD_EDGE", "params": {"u": 0, "v": 1, "weight": NaN}}]}'
        )
        assert main(["serve", dense_path, str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert "weight" in captured.err
        assert captured.out == ""

    def test_serve_human_table(self, dense_path, workload_path, capsys):
        assert main(["serve", dense_path, workload_path]) == 0
        out = capsys.readouterr().out
        assert "ops applied" in out
        assert "spanner digest" in out
