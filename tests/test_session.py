"""Session semantics: legacy-identical builds, snapshot reuse, verification."""

from __future__ import annotations

import pytest

from repro import (
    FaultModel,
    Session,
    SpannerSpec,
    fault_tolerant_spanner,
)
from repro.compiled import compiled_available
from repro.core import clpr_fault_tolerant_spanner
from repro.distributed import distributed_ft2_spanner, distributed_ft_spanner
from repro.errors import InvalidSpec, UnknownAlgorithm
from repro.graph import (
    complete_graph,
    connected_gnp_graph,
    dump_json,
    gnp_random_digraph,
)
from repro.session import build as one_shot_build
from repro.spanners import (
    baswana_sen_spanner,
    build_distance_oracle,
    greedy_spanner,
    thorup_zwick_spanner,
)
from repro.two_spanner import approximate_ft2_spanner, dk10_baseline


def edge_set(graph):
    return sorted(graph.edges())


@pytest.fixture
def host():
    return connected_gnp_graph(60, 0.2, seed=0)


@pytest.fixture
def digraph():
    return gnp_random_digraph(10, 0.5, seed=4)


class TestLegacyIdentity:
    """Session.build(spec) == the legacy top-level call, same seed.

    This is the acceptance gate of the spec/registry/session redesign:
    the typed front door adds structure, never different output.
    """

    def test_greedy(self, host):
        report = Session().build(SpannerSpec("greedy", stretch=3), graph=host)
        assert edge_set(report.spanner) == edge_set(greedy_spanner(host, 3))

    def test_greedy_size_first_param(self, host):
        spec = SpannerSpec("greedy", stretch=3, params={"max_edges": 40})
        report = Session().build(spec, graph=host)
        assert report.size == 40

    def test_baswana_sen(self, host):
        spec = SpannerSpec("baswana-sen", stretch=3, seed=7)
        report = Session().build(spec, graph=host)
        assert edge_set(report.spanner) == edge_set(
            baswana_sen_spanner(host, 2, seed=7)
        )

    def test_thorup_zwick(self, host):
        spec = SpannerSpec("thorup-zwick", stretch=5, seed=7)
        report = Session().build(spec, graph=host)
        assert edge_set(report.spanner) == edge_set(
            thorup_zwick_spanner(host, 3, seed=7)
        )

    def test_tz_oracle(self, host):
        spec = SpannerSpec("tz-oracle", stretch=3, seed=7)
        report = Session().build(spec, graph=host)
        legacy = build_distance_oracle(host, 2, seed=7)
        assert report.artifact.bunches == legacy.bunches
        assert report.artifact.witnesses == legacy.witnesses
        assert report.size == legacy.total_size()
        assert report.spanner is None  # oracles have no spanner graph

    def test_theorem21(self, host):
        spec = SpannerSpec(
            "theorem21", stretch=3, faults=FaultModel.vertex(1), seed=1
        )
        report = Session().build(spec, graph=host)
        legacy = fault_tolerant_spanner(host, 3, 1, seed=1)
        assert edge_set(report.spanner) == edge_set(legacy.spanner)
        assert report.stats["iterations"] == legacy.stats.iterations
        assert report.stats["max_survivor_size"] == legacy.stats.max_survivor_size

    def test_theorem21_edge(self):
        comm = connected_gnp_graph(26, 0.3, seed=50)
        spec = SpannerSpec(
            "theorem21", stretch=3, faults=FaultModel.edge(1), seed=13
        )
        report = Session().build(spec, graph=comm)
        legacy = fault_tolerant_spanner(comm, 3, 1, seed=13, kind="edge")
        assert edge_set(report.spanner) == edge_set(legacy.spanner)

    def test_clpr09(self, host):
        spec = SpannerSpec(
            "clpr09", stretch=3, faults=FaultModel.vertex(1), seed=7
        )
        report = Session().build(spec, graph=host)
        legacy = clpr_fault_tolerant_spanner(host, 2, 1, seed=7)
        assert edge_set(report.spanner) == edge_set(legacy.spanner)

    def test_ft2_approx(self, digraph):
        spec = SpannerSpec(
            "ft2-approx", stretch=2, faults=FaultModel.vertex(1), seed=8
        )
        report = Session().build(spec, graph=digraph)
        legacy = approximate_ft2_spanner(digraph, 1, seed=8)
        assert edge_set(report.spanner) == edge_set(legacy.spanner)
        assert report.stats["cost"] == legacy.cost
        assert report.stats["lp_objective"] == legacy.lp_objective

    def test_dk10_baseline(self, digraph):
        spec = SpannerSpec(
            "dk10-baseline", stretch=2, faults=FaultModel.vertex(1), seed=8
        )
        report = Session().build(spec, graph=digraph)
        legacy = dk10_baseline(digraph, 1, seed=8)
        assert edge_set(report.spanner) == edge_set(legacy.spanner)

    def test_distributed_ft(self):
        comm = connected_gnp_graph(26, 0.3, seed=50)
        spec = SpannerSpec(
            "distributed-ft", stretch=3, faults=FaultModel.vertex(1),
            seed=51, params={"iterations": 6},
        )
        report = Session().build(spec, graph=comm)
        legacy = distributed_ft_spanner(comm, k=2, r=1, iterations=6, seed=51)
        assert edge_set(report.spanner) == edge_set(legacy.spanner)
        assert report.stats["total_rounds"] == legacy.total_rounds

    def test_distributed_ft2(self, digraph):
        spec = SpannerSpec(
            "distributed-ft2", stretch=2, faults=FaultModel.vertex(1), seed=11
        )
        report = Session().build(spec, graph=digraph)
        legacy = distributed_ft2_spanner(digraph, 1, seed=11)
        assert edge_set(report.spanner) == edge_set(legacy.spanner)

    def test_every_registered_algorithm_builds(self, host, digraph):
        """Smoke: each registry entry builds through a Session somewhere.

        The per-algorithm tests above pin outputs; this one guards
        against a future registration that no test exercises.
        """
        covered = {
            "greedy", "baswana-sen", "thorup-zwick", "tz-oracle",
            "theorem21", "clpr09",
            "ft2-approx", "dk10-baseline", "distributed-ft",
            "distributed-ft2",
            "ft2-stream",  # exercised by tests/test_serve.py
        }
        assert set(Session.algorithms()) == covered


class TestMethodThreading:
    """Satellite gate: method= reaches the conversion's base algorithm."""

    def test_conversion_dict_vs_engine_identical(self, host):
        auto = fault_tolerant_spanner(host, 3, 1, seed=5)
        forced = fault_tolerant_spanner(host, 3, 1, seed=5, method="dict")
        assert edge_set(auto.spanner) == edge_set(forced.spanner)
        assert auto.stats.survivor_sizes == forced.stats.survivor_sizes

    def test_conversion_rejects_unknown_method(self, host):
        from repro.core import fault_tolerant_spanner_until_valid
        from repro.errors import FaultToleranceError

        for method in ("gpu", "indexed"):
            with pytest.raises(FaultToleranceError):
                fault_tolerant_spanner(host, 3, 1, seed=5, method=method)
            with pytest.raises(FaultToleranceError):
                fault_tolerant_spanner_until_valid(
                    host, 3, 1, lambda union: True, seed=5, method=method
                )
            with pytest.raises(FaultToleranceError):
                fault_tolerant_spanner(
                    host, 3, 1, seed=5, method=method, kind="edge"
                )
            with pytest.raises(ValueError):
                greedy_spanner(host, 3, method=method)

    def test_method_reaches_custom_base(self, host):
        """A base accepting method= receives the conversion's method."""
        seen = []

        def base(graph, k, method="auto"):
            seen.append(method)
            return greedy_spanner(graph, k, method=method)

        fault_tolerant_spanner(
            host, 3, 1, base_algorithm=base, iterations=2, seed=5,
            method="dict",
        )
        assert seen and all(m == "dict" for m in seen)

    def test_methodless_base_still_works(self, host):
        def base(graph, k):
            return greedy_spanner(graph, k)

        result = fault_tolerant_spanner(
            host, 3, 1, base_algorithm=base, iterations=2, seed=5,
            method="csr",
        )
        assert result.num_edges > 0

    def test_session_method_dict_identical(self, host):
        a = Session().build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1),
                        seed=1, method="dict"),
            graph=host,
        )
        b = Session().build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1),
                        seed=1, method="csr"),
            graph=host,
        )
        assert edge_set(a.spanner) == edge_set(b.spanner)


class TestSnapshotReuse:
    def test_build_many_reuses_one_snapshot(self):
        graph = complete_graph(64)  # fresh: no cached snapshot yet
        session = Session()
        specs = [
            SpannerSpec("baswana-sen", stretch=3, seed=s) for s in range(4)
        ]
        reports = session.build_many(specs, graph=graph)
        assert len(reports) == 4
        # One CSR snapshot build, three cache hits: the host was
        # snapshotted exactly once across the whole batch.
        assert session.snapshot_builds == 1
        assert session.snapshot_hits == 3

    def test_path_bound_specs_share_one_loaded_graph(self, tmp_path):
        path = str(tmp_path / "host.json")
        dump_json(complete_graph(64), path)
        session = Session()
        specs = [
            SpannerSpec("greedy", stretch=3, graph=path),
            SpannerSpec("baswana-sen", stretch=3, seed=1, graph=path),
            SpannerSpec("thorup-zwick", stretch=3, seed=1, graph=path),
        ]
        session.build_many(specs)
        assert session.snapshot_builds == 1
        assert session.snapshot_hits == 2

    def test_dict_method_builds_no_snapshot(self):
        graph = complete_graph(64)
        session = Session()
        session.build(
            SpannerSpec("greedy", stretch=3, method="dict"), graph=graph
        )
        assert session.snapshot_builds == 0
        assert session.snapshot_hits == 0

    def test_no_snapshot_for_algorithms_without_csr_path(self):
        """csr_path=False pipelines must not pay for an unused snapshot."""
        graph = gnp_random_digraph(50, 0.3, seed=2)
        session = Session()
        session.build(
            SpannerSpec("ft2-approx", stretch=2, faults=FaultModel.vertex(1),
                        seed=1),
            graph=graph,
        )
        # The LP pipeline may snapshot internally (PR 2's row assembly);
        # what matters is that the *session* did not pre-pay for one.
        assert session.snapshot_builds == 0
        assert session.snapshot_hits == 0


class TestResolvedMethod:
    """Reports state the dispatch path actually taken, not the size rule."""

    def test_greedy_small_graph_reports_true_kernel(self):
        graph = complete_graph(10)  # below MIN_DISPATCH_VERTICES
        report = Session().build(SpannerSpec("greedy", stretch=3), graph=graph)
        # greedy dispatches by kernel availability, never by size
        assert report.resolved_method == (
            "compiled" if compiled_available() else "csr"
        )

    def test_theorem21_small_graph_reports_engine_tier(self):
        graph = complete_graph(10)
        report = Session().build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1),
                        seed=1),
            graph=graph,
        )
        assert report.resolved_method == (
            "compiled" if compiled_available() else "csr"
        )

    def test_dict_is_reported_as_dict(self):
        graph = complete_graph(64)
        report = Session().build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1),
                        seed=1, method="dict"),
            graph=graph,
        )
        assert report.resolved_method == "dict"

    def test_size_rule_algorithms_keep_generic_resolution(self):
        small = connected_gnp_graph(20, 0.4, seed=1)
        report = Session().build(
            SpannerSpec("baswana-sen", stretch=3, seed=1), graph=small
        )
        assert report.resolved_method == "dict"  # n < threshold -> dict

    def test_adaptive_reports_the_theorem21_tier(self):
        graph = connected_gnp_graph(120, 0.1, seed=3)
        digraph = gnp_random_digraph(50, 0.06, seed=4)
        for host in (graph, digraph):
            for method in ("auto", "csr", "dict"):
                reports = [
                    Session().build(
                        SpannerSpec("theorem21", stretch=3,
                                    faults=FaultModel.vertex(1), seed=2,
                                    params=params, method=method),
                        graph=host,
                    )
                    for params in (
                        {"iterations": 2}, {"until_valid": {"trials": 2}}
                    )
                ]
                assert reports[1].resolved_method == reports[0].resolved_method

    @pytest.mark.parametrize(
        "name", ["ft2-approx", "dk10-baseline", "ft2-stream", "distributed-ft"]
    )
    def test_single_path_rows_report_dict(self, name):
        host = connected_gnp_graph(48, 0.15, seed=5)  # at the dispatch size
        spec = SpannerSpec(name, stretch=2, faults=FaultModel.vertex(1), seed=6)
        if name == "distributed-ft":
            spec = SpannerSpec(name, stretch=3, seed=6)
        for method in ("auto", "csr"):
            report = Session().build(spec.replace(method=method), graph=host)
            assert report.resolved_method == "dict"
        with pytest.raises(ValueError):  # no compiled kernel to request
            Session().build(spec.replace(method="compiled"), graph=host)

    def test_distributed_ft2_reports_its_sampler_tier(self):
        for n, expected in ((10, "dict"), (48, "csr")):
            report = Session().build(
                SpannerSpec("distributed-ft2", stretch=2,
                            faults=FaultModel.vertex(1), seed=7,
                            params={"t": 1}),
                graph=gnp_random_digraph(n, 0.1, seed=8),
            )
            assert report.resolved_method == expected


class TestSeedSpawning:
    def test_unseeded_specs_get_derived_seeds(self, host):
        spec = SpannerSpec("baswana-sen", stretch=3)
        a = Session(seed=42).build(spec, graph=host)
        b = Session(seed=42).build(spec, graph=host)
        assert a.resolved_seed == b.resolved_seed
        assert edge_set(a.spanner) == edge_set(b.spanner)

    def test_reports_are_replayable(self, host):
        report = Session(seed=42).build(
            SpannerSpec("baswana-sen", stretch=3), graph=host
        )
        replay = Session().build(
            SpannerSpec("baswana-sen", stretch=3, seed=report.resolved_seed),
            graph=host,
        )
        assert edge_set(replay.spanner) == edge_set(report.spanner)

    def test_explicit_seed_wins(self, host):
        report = Session(seed=1).build(
            SpannerSpec("baswana-sen", stretch=3, seed=77), graph=host
        )
        assert report.resolved_seed == 77

    def test_fingerprint_tracks_spec_and_seed(self, host):
        session = Session()
        a = session.build(SpannerSpec("greedy", stretch=3, seed=1), graph=host)
        b = session.build(SpannerSpec("greedy", stretch=3, seed=1), graph=host)
        c = session.build(SpannerSpec("greedy", stretch=3, seed=2), graph=host)
        assert a.rng_fingerprint == b.rng_fingerprint
        assert a.rng_fingerprint != c.rng_fingerprint


class TestCapabilityChecks:
    def test_directed_host_into_undirected_algorithm(self, digraph):
        with pytest.raises(InvalidSpec) as excinfo:
            Session().build(
                SpannerSpec("baswana-sen", stretch=3, seed=1), graph=digraph
            )
        assert "undirected" in str(excinfo.value)

    def test_faults_on_plain_algorithm(self, host):
        with pytest.raises(InvalidSpec) as excinfo:
            Session().build(
                SpannerSpec("greedy", stretch=3, faults=FaultModel.vertex(1)),
                graph=host,
            )
        assert "theorem21" in str(excinfo.value)  # actionable: names the fix

    def test_wrong_fault_kind(self, host):
        # clpr09 tolerates vertex faults only (theorem21 serves both kinds).
        with pytest.raises(InvalidSpec):
            Session().build(
                SpannerSpec("clpr09", stretch=3, faults=FaultModel.edge(1)),
                graph=host,
            )

    def test_missing_graph(self):
        with pytest.raises(InvalidSpec) as excinfo:
            Session().build(SpannerSpec("greedy", stretch=3))
        assert "host graph" in str(excinfo.value)

    def test_even_stretch_into_odd_domain(self, host):
        with pytest.raises(InvalidSpec) as excinfo:
            Session().build(
                SpannerSpec("baswana-sen", stretch=4, seed=1), graph=host
            )
        assert "odd integer" in str(excinfo.value)


class TestVerify:
    def test_verify_plain_spanner(self, host):
        session = Session()
        report = session.build(SpannerSpec("greedy", stretch=3), graph=host)
        assert session.verify(report, graph=host)

    def test_verify_vertex_faults_all_modes(self, host):
        session = Session()
        report = session.build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1),
                        seed=1),
            graph=host,
        )
        assert session.verify(report, graph=host, mode="sampled")
        assert session.verify(report, graph=host, mode="auto")

    def test_verify_edge_faults(self):
        comm = connected_gnp_graph(22, 0.4, seed=3)
        session = Session()
        report = session.build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.edge(1),
                        seed=13),
            graph=comm,
        )
        assert session.verify(report, graph=comm, mode="sampled")

    def test_auto_counts_edge_fault_sets_for_edge_faults(self, monkeypatch):
        """Auto sizes an edge-fault report by its C(m, <= r) edge fault sets.

        Here m = 699, so r = 2 gives about 244k edge fault sets and auto
        must sample; the 2,486 vertex fault sets would have picked
        exhaustive enumeration.
        """
        import repro.core

        comm = connected_gnp_graph(70, 0.3, seed=0)
        assert comm.num_edges == 699
        session = Session()
        report = session.build(
            SpannerSpec("theorem21", stretch=3, faults=FaultModel.edge(2),
                        seed=5, params={"iterations": 8}),
            graph=comm,
        )

        def refuse(*_args, **_kwargs):
            raise AssertionError("auto entered the exhaustive driver")

        sampled = []
        real_sampled = repro.core.sampled_fault_check

        def spy(*args, **kwargs):
            sampled.append((kwargs["trials"], kwargs["kind"]))
            return real_sampled(*args, **kwargs)

        monkeypatch.setattr(repro.core, "is_fault_tolerant_spanner", refuse)
        monkeypatch.setattr(repro.core, "sampled_fault_check", spy)
        session.verify(report, graph=comm, mode="auto", trials=3)
        assert sampled == [(3, "edge")]

    def test_verify_lemma31(self, digraph):
        session = Session()
        report = session.build(
            SpannerSpec("ft2-approx", stretch=2, faults=FaultModel.vertex(1),
                        seed=8),
            graph=digraph,
        )
        assert session.verify(report, graph=digraph, mode="auto")

    @staticmethod
    def _detour_spanner():
        """A theorem21 stretch-2 spanner that keeps only 10-weight detours.

        Lemma 3.1 counts two-paths at unit length; theorem21 reads weights
        as lengths. Here the kept ``u-x-v`` detours have length 20 > 2 * 1.
        """
        from repro.graph import Graph

        host = Graph()
        host.add_edge("u", "v", 1.0)
        for mid in "xyz":
            host.add_edge("u", mid, 10.0)
            host.add_edge(mid, "v", 10.0)
        session = Session()
        report = session.build(
            SpannerSpec("theorem21", stretch=2, faults=FaultModel.vertex(1),
                        seed=76, params={"iterations": 4}),
            graph=host,
        )
        assert not report.spanner.has_edge("u", "v")
        assert report.spanner.num_edges == 6
        return session, report, host

    def test_auto_reads_lengths_for_theorem21_at_stretch_two(self):
        session, report, host = self._detour_spanner()
        assert not session.verify(report, graph=host)
        assert not session.verify(report, graph=host, mode="exhaustive")

    def test_lemma31_refuses_rows_that_read_lengths(self):
        """An explicit lemma31 on theorem21 would pass the invalid spanner."""
        session, report, host = self._detour_spanner()
        assert not session.verify(report, graph=host, mode="sampled")
        with pytest.raises(InvalidSpec, match="lemma31"):
            session.verify(report, graph=host, mode="lemma31")

    def test_lemma31_decides_fixed_stretch_two_rows_at_r0(self):
        """A fault-free ft2-stream spanner of a cost-weighted host is valid:
        auto and lemma31 run Lemma 3.1 at r = 0 instead of the length check."""
        from repro.core import is_ft_2spanner
        from repro.hosts import HostSpec

        host = HostSpec("gnp-digraph", params={
            "n": 12, "p": 0.4, "cost_range": [1.0, 10.0]}, seed=3).materialize()
        session = Session()
        report = session.build(
            SpannerSpec("ft2-stream", stretch=2, seed=5), graph=host
        )
        assert is_ft_2spanner(report.spanner, host, 0)
        assert session.verify(report, graph=host)
        assert session.verify(report, graph=host, mode="lemma31")
        # The length checks stay available on request.
        assert not session.verify(report, graph=host, mode="exhaustive")

    def test_verify_rejects_bad_mode(self, host):
        session = Session()
        report = session.build(SpannerSpec("greedy", stretch=3), graph=host)
        with pytest.raises(InvalidSpec):
            session.verify(report, graph=host, mode="telepathy")

    def test_verify_oracle_report_is_actionable(self, host):
        session = Session()
        report = session.build(
            SpannerSpec("tz-oracle", stretch=3, seed=7), graph=host
        )
        with pytest.raises(InvalidSpec) as excinfo:
            session.verify(report, graph=host)
        assert "no spanner graph" in str(excinfo.value)


class TestTheorem21Row:
    """One row: the fault kind comes from the spec, the adaptive stop
    from ``params.until_valid``."""

    @pytest.mark.parametrize("name", ["theorem21-edge", "theorem21-adaptive"])
    def test_folded_names_are_unknown(self, host, name):
        with pytest.raises(UnknownAlgorithm):
            Session().build(
                SpannerSpec(name, stretch=3, faults=FaultModel.edge(1), seed=1),
                graph=host,
            )

    def test_exhaustive_edge_stop_agrees_across_tiers(self):
        comm = connected_gnp_graph(16, 0.4, seed=2)
        spec = SpannerSpec("theorem21", stretch=3, faults=FaultModel.edge(1),
                           seed=3, params={"until_valid": {"check": "exhaustive"}})
        methods = ["dict", "csr"] + (["compiled"] if compiled_available() else [])
        spanners = []
        for method in methods:
            session = Session()
            report = session.build(spec.replace(method=method), graph=comm)
            assert report.stats["until_valid"]["check"] == "exhaustive"
            assert session.verify(report, graph=comm, mode="exhaustive")
            spanners.append(list(report.spanner.edges()))
        assert all(edges == spanners[0] for edges in spanners)


def test_one_shot_build_helper(host):
    report = one_shot_build(SpannerSpec("greedy", stretch=3), graph=host)
    assert edge_set(report.spanner) == edge_set(greedy_spanner(host, 3))
