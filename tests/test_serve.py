"""Self-healing spanner service: workloads, tiered repair, chaos, digests.

The acceptance property pinned down here is graceful degradation: the
service *never* answers a read from a Lemma 3.1-invalid spanner without
reporting ``degraded`` — under eager policies because repair runs before
the next read, under lazy policies because the answer itself carries the
degraded health state.
"""

from __future__ import annotations

import json

import pytest

from repro import FaultModel, Session, SpannerSpec
from repro.core import IncrementalFT2Verifier, is_ft_2spanner, unsatisfied_edges
from repro.errors import InvalidSpec
from repro.graph import (
    connected_gnp_graph,
    csr_snapshot,
    gnp_random_digraph,
    invalidate_snapshot,
)
from repro.hosts import HostSpec
from repro.serve import (
    ChaosInjector,
    Operation,
    RepairPolicy,
    ServiceHealth,
    SpannerService,
    WorkloadGenerator,
    apply_mutations,
    load_workload,
    read_write_weights,
    save_workload,
    spanner_digest,
    stream_ft2_spanner,
)
from repro.serve.workload import (
    ADD_EDGE,
    ADD_NODE,
    DEL_EDGE,
    DEL_NODE,
    QUERY_DIST,
    READ_NBRS,
    READS,
)


@pytest.fixture
def host():
    return connected_gnp_graph(24, 0.3, seed=3)


@pytest.fixture
def dense_host():
    """Dense enough that the stream spanner leaves many host edges unkept
    (covered by two-paths only) — the regime where deleting spanner edges
    actually produces Lemma 3.1 damage."""
    return connected_gnp_graph(24, 0.6, seed=3)


def make_service(host, r=1, policy=None, seed=0):
    return SpannerService(host, r=r, policy=policy, seed=seed)


def assert_reads_never_silently_degraded(results):
    """The tentpole invariant: invalid spanner + read => degraded."""
    for result in results:
        if result.type in READS and result.damage > 0:
            assert result.health == ServiceHealth.DEGRADED


class TestWorkloadGenerator:
    def test_same_seed_same_stream(self, host):
        ops_a = WorkloadGenerator(host, seed=7).generate(120)
        ops_b = WorkloadGenerator(host, seed=7).generate(120)
        assert [op.to_dict() for op in ops_a] == [op.to_dict() for op in ops_b]

    def test_different_seed_different_stream(self, host):
        ops_a = WorkloadGenerator(host, seed=7).generate(120)
        ops_b = WorkloadGenerator(host, seed=8).generate(120)
        assert [op.to_dict() for op in ops_a] != [op.to_dict() for op in ops_b]

    def test_mutations_always_applicable(self, host):
        """Every emitted mutation is legal at its point of the stream."""
        ops = WorkloadGenerator(
            host, seed=11, weights=read_write_weights(0.3)
        ).generate(300)
        mirror = host.copy()
        for op in ops:
            if op.type == ADD_NODE:
                assert not mirror.has_vertex(op.param("v"))
                mirror.add_vertex(op.param("v"))
            elif op.type == ADD_EDGE:
                u, v = op.param("u"), op.param("v")
                assert u != v and not mirror.has_edge(u, v)
                mirror.add_edge(u, v, op.params["weight"])
            elif op.type == DEL_EDGE:
                u, v = op.param("u"), op.param("v")
                assert mirror.has_edge(u, v)
                mirror.remove_edge(u, v)
            elif op.type == DEL_NODE:
                assert mirror.has_vertex(op.param("v"))
                mirror.remove_vertex(op.param("v"))
            elif op.type in (QUERY_DIST, READ_NBRS):
                for key in ("u", "v") if op.type == QUERY_DIST else ("v",):
                    assert mirror.has_vertex(op.param(key))

    def test_generate_exact_count_even_when_pools_drain(self):
        g = connected_gnp_graph(4, 0.9, seed=0)
        ops = WorkloadGenerator(
            g, seed=1, weights={DEL_EDGE: 1.0}
        ).generate(40)
        assert len(ops) == 40

    def test_negative_op_count_rejected(self, host):
        generator = WorkloadGenerator(host, seed=1)
        with pytest.raises(InvalidSpec, match="num_ops"):
            generator.generate(-5)
        assert generator.generate(0) == []

    def test_unknown_weight_key_rejected(self, host):
        with pytest.raises(InvalidSpec, match="unknown op types"):
            WorkloadGenerator(host, seed=0, weights={"NOPE": 1.0})

    def test_all_zero_weights_rejected(self, host):
        with pytest.raises(InvalidSpec, match="at least one"):
            WorkloadGenerator(host, seed=0, weights={ADD_EDGE: 0.0})

    def test_read_write_weights_validation(self):
        with pytest.raises(InvalidSpec, match="read_ratio"):
            read_write_weights(1.5)
        weights = read_write_weights(0.9)
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        assert weights[QUERY_DIST] == weights[READ_NBRS] == 0.45


class TestOperation:
    def test_rejects_unknown_type(self):
        with pytest.raises(InvalidSpec, match="operation type"):
            Operation("RENAME_NODE", {})

    def test_missing_param_names_the_key(self):
        op = Operation(QUERY_DIST, {"u": 0})
        with pytest.raises(InvalidSpec, match="'v'"):
            op.param("v")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidSpec, match="unknown keys"):
            Operation.from_dict({"type": ADD_NODE, "params": {}, "extra": 1})

    def test_json_round_trip(self, host, tmp_path):
        ops = WorkloadGenerator(host, seed=5).generate(80)
        path = str(tmp_path / "trace.json")
        save_workload(ops, path)
        loaded = load_workload(path)
        assert [op.to_dict() for op in loaded] == [op.to_dict() for op in ops]
        # canonical JSON: a second save is byte-identical
        path2 = str(tmp_path / "trace2.json")
        save_workload(loaded, path2)
        with open(path) as a, open(path2) as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), -1.0, "1.0", True, None]
    )
    def test_add_edge_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(InvalidSpec, match="weight"):
            Operation(ADD_EDGE, {"u": 0, "v": 1, "weight": weight})

    def test_add_edge_weight_defaults_and_integers_pass(self):
        assert Operation(ADD_EDGE, {"u": 0, "v": 1}).params == {"u": 0, "v": 1}
        Operation(ADD_EDGE, {"u": 0, "v": 1, "weight": 0})

    def test_load_rejects_a_nan_weight_before_any_op_runs(self, tmp_path):
        # Python's json reads the NaN literal; the trace must not load.
        path = tmp_path / "nan.json"
        path.write_text(
            '{"format": "repro-workload", "version": 1, "ops": ['
            '{"type": "ADD_NODE", "params": {"v": "x"}}, '
            '{"type": "ADD_EDGE", "params": {"u": 0, "v": 1, "weight": NaN}}]}'
        )
        with pytest.raises(InvalidSpec, match="weight"):
            load_workload(str(path))

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(InvalidSpec, match="not a workload"):
            load_workload(path)


def _verifier_driven_stream(graph, r):
    """The stream's edges as first written: decided by a growing verifier."""
    verifier = IncrementalFT2Verifier(graph, r)
    bought = []
    for u, v, _w in graph.edges():
        if not verifier.has_edge(u, v) and verifier.count_two_paths(u, v) < r + 1:
            verifier.add_edge(u, v)
            bought.append((u, v))
    return bought


#: ``spanner_digest(stream_ft2_spanner(host, r))`` for r = 1 and r = 2,
#: recorded from the verifier-driven stream above.
PINNED_STREAM_HOSTS = {
    "barabasi-albert": (
        HostSpec("barabasi-albert", {"n": 2000, "m": 5}, seed=7),
        ("c69fbbbfd0b9ce5c", "6accf671a8072620"),
    ),
    "gnp-connected-weighted": (
        HostSpec(
            "gnp-connected",
            {"n": 120, "p": 0.3, "weight_range": [1.0, 10.0]},
            seed=5,
        ),
        ("376c134473efccc0", "9ca28324ce332535"),
    ),
    "gnp-digraph": (
        HostSpec("gnp-digraph", {"n": 60, "p": 0.3}, seed=6),
        ("727850caa95ae89b", "6322ada5a8df60de"),
    ),
    "kautz": (
        HostSpec("kautz", {"d": 3, "diameter": 3}),
        ("a370c6c90b61c6a4", "a370c6c90b61c6a4"),
    ),
    "dcell": (
        HostSpec("dcell", {"n": 4, "level": 1}),
        ("08226c8ef3598526", "555e9e89a83afcb5"),
    ),
}


class TestStreamFt2:
    @pytest.mark.parametrize("name", sorted(PINNED_STREAM_HOSTS))
    @pytest.mark.parametrize("r", [1, 2])
    def test_reproduces_the_pinned_digests(self, name, r):
        spec, digests = PINNED_STREAM_HOSTS[name]
        spanner = stream_ft2_spanner(spec.materialize(), r)
        assert spanner_digest(spanner) == digests[r - 1]

    @pytest.mark.parametrize(
        "graph",
        [
            connected_gnp_graph(24, 0.3, seed=3),
            connected_gnp_graph(60, 0.4, seed=8, weight_range=(1.0, 5.0)),
            gnp_random_digraph(40, 0.3, seed=2),
            gnp_random_digraph(60, 0.15, seed=9),
        ]
        + [spec.materialize() for spec, _digests in PINNED_STREAM_HOSTS.values()],
        ids=lambda g: f"{type(g).__name__}-n{g.num_vertices}-m{g.num_edges}",
    )
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_buys_the_verifier_driven_edges_in_order(self, graph, r):
        spanner = stream_ft2_spanner(graph, r)
        reference = graph.edge_subgraph(_verifier_driven_stream(graph, r))
        assert spanner.edge_list() == reference.edge_list()
        assert list(spanner.vertices()) == list(reference.vertices())

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_valid_on_undirected(self, host, r):
        spanner = stream_ft2_spanner(host, r)
        assert is_ft_2spanner(spanner, host, r)

    @pytest.mark.parametrize("r", [0, 1])
    def test_valid_on_directed(self, r):
        g = gnp_random_digraph(18, 0.4, seed=2)
        spanner = stream_ft2_spanner(g, r)
        assert is_ft_2spanner(spanner, g, r)

    def test_deterministic(self, host):
        a = stream_ft2_spanner(host, 1)
        b = stream_ft2_spanner(host, 1)
        assert spanner_digest(a) == spanner_digest(b)

    def test_registered_as_algorithm(self, host):
        spec = SpannerSpec(
            "ft2-stream", stretch=2, faults=FaultModel.vertex(1)
        )
        report = Session().build(spec, graph=host)
        assert report.spanner is not None
        assert is_ft_2spanner(report.spanner, host, 1)
        assert report.stats["host_edges"] == host.num_edges

    def test_wrong_stretch_refused(self, host):
        spec = SpannerSpec("ft2-stream", stretch=3)
        with pytest.raises(InvalidSpec):
            Session().build(spec, graph=host)


class TestRepairPolicy:
    def test_tier_escalation(self):
        policy = RepairPolicy(patch_threshold=0.02, rebuild_threshold=0.10)
        assert policy.tier_for(0.0) == "patch"
        assert policy.tier_for(0.02) == "patch"
        assert policy.tier_for(0.05) == "region"
        assert policy.tier_for(0.10) == "region"
        assert policy.tier_for(0.11) == "full"

    def test_always_full_short_circuits(self):
        assert RepairPolicy.rebuild_per_mutation().tier_for(0.0) == "full"

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(InvalidSpec, match="patch_threshold"):
            RepairPolicy(patch_threshold=0.5, rebuild_threshold=0.1)

    def test_lazy_is_not_eager(self):
        assert not RepairPolicy.lazy().eager
        assert RepairPolicy().eager


class TestSpannerService:
    def test_initial_build_is_valid(self, host):
        service = make_service(host, r=1)
        assert service.is_valid()
        assert is_ft_2spanner(service.spanner, service.host, 1)
        assert service.health == ServiceHealth.HEALTHY

    def test_requires_stretch_two(self, host):
        spec = SpannerSpec("greedy", stretch=3)
        with pytest.raises(InvalidSpec, match="stretch"):
            SpannerService(host, spec)

    def test_eager_stream_stays_valid(self, host):
        service = make_service(host, r=1)
        ops = WorkloadGenerator(
            host.copy(), seed=13, weights=read_write_weights(0.5)
        ).generate(250)
        results = service.apply_all(ops)
        assert len(results) == 250
        assert service.is_valid()
        # the incremental verifier agrees with the static recomputation
        assert (
            unsatisfied_edges(service.spanner, service.host, 1) == []
        )
        assert_reads_never_silently_degraded(results)

    def test_spanner_is_subgraph_of_host(self, host):
        service = make_service(host, r=1)
        ops = WorkloadGenerator(
            host.copy(), seed=17, weights=read_write_weights(0.2)
        ).generate(300)
        service.apply_all(ops)
        for u, v, w in service.spanner.edges():
            assert service.host.has_edge(u, v)
            assert service.host.weight(u, v) == w

    def test_del_spanner_edge_triggers_repair(self):
        # On K4 with r=1 the stream spanner keeps every edge except
        # (2, 3), which relies on midpoints {0, 1}. Deleting spanner
        # edge (0, 2) kills midpoint 0, so (2, 3) must be repaired.
        from repro.graph import complete_graph

        service = make_service(complete_graph(4), r=1)
        assert service.spanner.has_edge(0, 2)
        assert not service.spanner.has_edge(2, 3)
        result = service.apply(Operation(DEL_EDGE, {"u": 0, "v": 2}))
        assert result.ok
        assert result.tier is not None
        assert service.is_valid()
        assert sum(service.stats.tiers.values()) == 1

    def test_inapplicable_ops_are_skipped(self, host):
        service = make_service(host, r=1)
        u, v, _w = next(iter(host.edges()))
        before = service.spanner.num_edges
        result = service.apply(Operation(ADD_EDGE, {"u": u, "v": v}))
        assert not result.ok
        assert service.stats.skipped == 1
        assert service.spanner.num_edges == before
        missing = service.apply(Operation(QUERY_DIST, {"u": u, "v": "ghost"}))
        assert not missing.ok and missing.value is None
        assert service.stats.skipped == 2

    def test_query_dist_is_a_spanner_distance(self, host):
        service = make_service(host, r=1)
        u, v, w = next(iter(host.edges()))
        result = service.apply(Operation(QUERY_DIST, {"u": u, "v": v}))
        # 2-spanner: d_spanner(u, v) <= 2 * w(u, v) for a host edge
        assert result.ok and result.value is not None
        assert result.value <= 2 * w + 1e-9

    @pytest.mark.parametrize("tier", ["patch", "region", "full"])
    def test_forced_tier_ends_valid(self, host, tier):
        service = make_service(host, r=1)
        chaos = ChaosInjector(seed=1, adversarial=True)
        burst = chaos.edge_burst(service.host, 4, spanner=service.spanner)
        for op in burst:
            service._apply_mutation(op)
        service.repair(tier=tier)
        assert service.is_valid()
        assert service.stats.tiers[tier] == 1
        assert service.health == ServiceHealth.HEALTHY

    def test_unknown_tier_rejected(self, host):
        service = make_service(host, r=1)
        with pytest.raises(InvalidSpec, match="repair tier"):
            service.repair(tier="prayer")

    def test_repair_on_valid_spanner_is_a_noop(self, host):
        service = make_service(host, r=1)
        assert service.repair() is None
        assert sum(service.stats.tiers.values()) == 0

    def test_rebuild_per_mutation_baseline(self, host):
        service = make_service(host, policy=RepairPolicy.rebuild_per_mutation())
        ops = WorkloadGenerator(
            host.copy(), seed=19, weights=read_write_weights(0.0)
        ).generate(20)
        results = service.apply_all(ops)
        applied = sum(1 for r in results if r.ok and r.tier is not None)
        assert service.stats.tiers["full"] == applied
        assert applied > 0
        assert service.is_valid()

    def test_summary_is_json_able_and_accurate(self, host):
        service = make_service(host, r=2)
        ops = WorkloadGenerator(host.copy(), seed=23).generate(60)
        service.apply_all(ops)
        summary = service.summary()
        json.dumps(summary, sort_keys=True)
        assert summary["ops_applied"] == 60
        assert summary["r"] == 2
        assert summary["algorithm"] == "ft2-stream"
        assert summary["valid"] == service.is_valid()
        assert sum(summary["stats"]["ops"].values()) == 60

    def test_directed_host(self):
        g = gnp_random_digraph(16, 0.45, seed=6)
        service = make_service(g, r=1)
        ops = WorkloadGenerator(
            g.copy(), seed=3, weights=read_write_weights(0.5)
        ).generate(150)
        results = service.apply_all(ops)
        assert service.is_valid()
        assert unsatisfied_edges(service.spanner, service.host, 1) == []
        assert_reads_never_silently_degraded(results)

    def test_session_serve_factory(self, host):
        session = Session(seed=0)
        spec = SpannerSpec(
            "ft2-stream", stretch=2, faults=FaultModel.vertex(1)
        )
        service = session.serve(spec, graph=host)
        assert service.session is session
        assert service.r == 1
        assert service.is_valid()


class TestGracefulDegradation:
    """The acceptance invariant, exercised where it can actually fail."""

    def test_lazy_service_reports_degraded_reads(self, dense_host):
        service = make_service(dense_host, policy=RepairPolicy.lazy())
        chaos = ChaosInjector(seed=2, adversarial=True)
        burst = chaos.edge_burst(service.host, 6, spanner=service.spanner)
        service.apply_all(burst)
        assert not service.is_valid()  # lazy: damage is left standing
        u, v, _w = next(iter(service.host.edges()))
        result = service.apply(Operation(QUERY_DIST, {"u": u, "v": v}))
        assert result.health == ServiceHealth.DEGRADED
        assert service.stats.degraded_answers == 1
        # explicit repair restores health, and subsequent reads say so
        service.repair()
        assert service.is_valid()
        healthy = service.apply(Operation(QUERY_DIST, {"u": u, "v": v}))
        assert healthy.health == ServiceHealth.HEALTHY

    def test_no_silent_degraded_reads_across_policies(self, dense_host):
        """Fuzz the invariant: every read from an invalid spanner carries
        ``degraded``, and every degraded read is counted."""
        saw_degraded = False
        for policy in (
            RepairPolicy(),
            RepairPolicy.lazy(),
            RepairPolicy(patch_threshold=0.0, rebuild_threshold=0.0),
        ):
            service = SpannerService(dense_host.copy(), policy=policy, seed=0)
            ops = WorkloadGenerator(
                dense_host.copy(), seed=29, weights=read_write_weights(0.6)
            ).generate(200)
            chaos = ChaosInjector(seed=31, adversarial=True)
            ops[50:50] = chaos.edge_burst(
                service.host, 5, spanner=service.spanner
            )
            results = service.apply_all(ops)
            assert_reads_never_silently_degraded(results)
            degraded = sum(
                1
                for r in results
                if r.type in READS and r.health == ServiceHealth.DEGRADED
            )
            assert service.stats.degraded_answers == degraded
            saw_degraded = saw_degraded or degraded > 0
        # the scenario genuinely exercised the invariant at least once
        assert saw_degraded

    def test_lazy_runs_degraded_until_repair(self, dense_host):
        service = make_service(dense_host, policy=RepairPolicy.lazy())
        chaos = ChaosInjector(seed=5, adversarial=True)
        burst = chaos.edge_burst(service.host, 5, spanner=service.spanner)
        results = service.apply_all(burst)
        assert any(r.health == ServiceHealth.DEGRADED for r in results)
        assert service.stats.tiers == {"patch": 0, "region": 0, "full": 0}
        tier = service.repair()
        assert tier in ("patch", "region", "full")
        assert service.is_valid()


class TestChaosInjector:
    def test_seeded_bursts_replay(self, host):
        a = ChaosInjector(seed=9).edge_burst(host, 5)
        b = ChaosInjector(seed=9).edge_burst(host, 5)
        assert [op.to_dict() for op in a] == [op.to_dict() for op in b]

    def test_burst_targets_are_distinct_live_edges(self, host):
        ops = ChaosInjector(seed=9).edge_burst(host, 10)
        targets = [(op.param("u"), op.param("v")) for op in ops]
        assert len(set(targets)) == 10
        assert all(host.has_edge(u, v) for u, v in targets)

    def test_adversarial_edges_hit_the_spanner_first(self, host):
        spanner = stream_ft2_spanner(host, 1)
        count = min(8, spanner.num_edges)
        ops = ChaosInjector(seed=9, adversarial=True).edge_burst(
            host, count, spanner=spanner
        )
        assert len(ops) == count
        assert all(
            spanner.has_edge(op.param("u"), op.param("v")) for op in ops
        )

    def test_adversarial_nodes_kill_busiest_vertices(self, host):
        spanner = stream_ft2_spanner(host, 1)
        ops = ChaosInjector(seed=9, adversarial=True).node_burst(
            host, 3, spanner=spanner
        )
        victims = [op.param("v") for op in ops]
        floor = min(spanner.degree(v) for v in victims)
        spared = [v for v in host.vertices() if v not in victims]
        assert all(spanner.degree(v) <= floor for v in spared)

    def test_burst_clamps_to_pool_size(self, host):
        ops = ChaosInjector(seed=9).edge_burst(host, 10_000)
        assert len(ops) == host.num_edges

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_negative_burst_count_rejected(self, host, adversarial):
        spanner = stream_ft2_spanner(host, 1)
        chaos = ChaosInjector(seed=9, adversarial=adversarial)
        with pytest.raises(InvalidSpec, match="edge burst count"):
            chaos.edge_burst(host, -1, spanner=spanner)
        with pytest.raises(InvalidSpec, match="node burst count"):
            chaos.node_burst(host, -3, spanner=spanner)
        assert chaos.node_burst(host, 0, spanner=spanner) == []

    def test_adversarial_guarantees_damage(self, dense_host):
        service = make_service(dense_host, policy=RepairPolicy.lazy())
        burst = ChaosInjector(seed=5, adversarial=True).edge_burst(
            service.host, 6, spanner=service.spanner
        )
        results = service.apply_all(burst)
        assert all(r.ok for r in results)
        assert service.damage > 0


class TestDigestAndReplay:
    def test_digest_ignores_insertion_order(self):
        a = connected_gnp_graph(10, 0.5, seed=1)
        b = type(a)()
        b.add_vertices(reversed(list(a.vertices())))
        for u, v, w in reversed(list(a.edges())):
            b.add_edge(v, u, w)
        assert spanner_digest(a) == spanner_digest(b)

    def test_digest_sees_weights_and_edges(self, host):
        other = host.copy()
        u, v, w = next(iter(other.edges()))
        other.remove_edge(u, v)
        assert spanner_digest(other) != spanner_digest(host)
        other.add_edge(u, v, w + 1.0)
        assert spanner_digest(other) != spanner_digest(host)

    def test_final_rebuild_matches_from_scratch(self, host):
        """`repair(tier="full")` compacts to exactly the spanner a fresh
        ft2-stream build produces on the independently replayed host."""
        pristine = host.copy()
        service = make_service(host, r=1)
        ops = WorkloadGenerator(
            pristine.copy(), seed=37, weights=read_write_weights(0.4)
        ).generate(200)
        service.apply_all(ops)
        service.repair(tier="full")
        replayed = apply_mutations(pristine, ops)
        assert spanner_digest(replayed) == spanner_digest(service.host)
        assert spanner_digest(
            stream_ft2_spanner(replayed, 1)
        ) == spanner_digest(service.spanner)

    def test_same_seed_same_service_trace(self, host):
        docs = []
        for _ in range(2):
            service = SpannerService(host.copy(), seed=0)
            ops = WorkloadGenerator(host.copy(), seed=41).generate(150)
            results = service.apply_all(ops)
            docs.append(
                json.dumps(
                    {
                        "results": [r.to_dict() for r in results],
                        "summary": service.summary(),
                        "digest": spanner_digest(service.spanner),
                    },
                    sort_keys=True,
                )
            )
        assert docs[0] == docs[1]


class TestSnapshotInvalidation:
    def test_mutation_releases_cached_csr(self, host):
        service = make_service(host, r=1)
        csr_snapshot(service.host)  # a global query builds the cache
        assert getattr(service.host, "_csr_cache", None) is not None
        service.apply(Operation(ADD_NODE, {"v": "fresh"}))
        assert getattr(service.host, "_csr_cache", None) is None

    def test_invalidate_is_idempotent_and_safe_on_cold_graphs(self, host):
        invalidate_snapshot(host)  # never built: no-op
        snap = csr_snapshot(host)
        assert snap is csr_snapshot(host)  # cached
        invalidate_snapshot(host)
        invalidate_snapshot(host)
        assert getattr(host, "_csr_cache", None) is None
