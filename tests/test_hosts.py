"""Host topology subsystem: registry, specs, generators, grid sweeps.

Covers :mod:`repro.hosts` end to end — capability-typed registration,
strict HostSpec JSON round-trips, spec-derived fingerprints that survive
``PYTHONHASHSEED`` changes (proved in subprocesses), the structural
properties of the Kautz and DCell families, the corpus loader's
content-hash cache, and the (algorithm x topology x fault-model) grid
emitter with both registries' capability cross-checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    FaultModel,
    HostSpec,
    InvalidSpec,
    Session,
    SpannerSpec,
    SweepPlan,
    UnknownHostGenerator,
    available_host_generators,
    describe_host_generators,
    emit_grid_plan,
    get_host_generator,
    host_spec_key,
    register_host_generator,
    run_sweep,
)
from repro.errors import RegistryError
from repro.graph import (
    Graph,
    dcell_counts,
    kautz_graph,
)
from repro.graph.csr import MIN_DISPATCH_VERTICES, resolve_method
from repro.graph.paths import dijkstra
from repro.hosts.builtin import corpus_content_digest


# -- registry ----------------------------------------------------------


class TestRegistry:
    def test_builtin_families_present(self):
        names = available_host_generators()
        for name in (
            "complete", "corpus", "dcell", "gnp", "grid", "hypercube",
            "kautz", "powerlaw-cluster", "watts-strogatz",
        ):
            assert name in names

    def test_duplicate_registration_refused(self):
        with pytest.raises(RegistryError):
            @register_host_generator("kautz", summary="dup")
            def build(params, seed):  # pragma: no cover - never called
                return Graph()

    def test_unknown_generator_names_available(self):
        with pytest.raises(UnknownHostGenerator, match="kautz"):
            get_host_generator("no-such-family")

    def test_describe_rows_are_json_safe(self):
        rows = describe_host_generators()
        json.dumps(list(rows))  # must not smuggle non-JSON values
        by_name = {row["name"]: row for row in rows}
        assert by_name["kautz"]["directed"] is True
        assert by_name["corpus"]["directed"] is None  # depends on the file
        assert by_name["gnp"]["deterministic"] is False

    def test_missing_required_param(self):
        with pytest.raises(InvalidSpec, match="diameter"):
            get_host_generator("kautz").validate(
                HostSpec("kautz", params={"d": 2})
            )

    def test_unknown_param(self):
        with pytest.raises(InvalidSpec, match="bogus"):
            get_host_generator("dcell").validate(
                HostSpec("dcell", params={"n": 3, "level": 1, "bogus": 4})
            )

    def test_deterministic_generator_rejects_seed(self):
        with pytest.raises(InvalidSpec, match="seed"):
            get_host_generator("dcell").validate(
                HostSpec("dcell", params={"n": 3, "level": 1}, seed=1)
            )

    def test_randomized_generator_requires_seed(self):
        with pytest.raises(InvalidSpec, match="seed"):
            get_host_generator("gnp").validate(
                HostSpec("gnp", params={"n": 10, "p": 0.5})
            )

    def test_size_bound_refused_before_building(self):
        huge = HostSpec("kautz", params={"d": 4, "diameter": 12})
        with pytest.raises(InvalidSpec, match="vertices"):
            get_host_generator("kautz").validate(huge)


# -- HostSpec ----------------------------------------------------------


class TestHostSpec:
    def test_json_round_trip(self):
        spec = HostSpec("gnp", params={"n": 20, "p": 0.3}, seed=7)
        again = HostSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_separates_params_and_seed(self):
        base = HostSpec("gnp", params={"n": 20, "p": 0.3}, seed=7)
        assert base.fingerprint() != base.replace(seed=8).fingerprint()
        assert (
            base.fingerprint()
            != base.replace(params={"n": 21, "p": 0.3}).fingerprint()
        )

    def test_from_dict_rejects_unknown_keys(self):
        doc = HostSpec("complete", params={"n": 4}).to_dict()
        doc["surprise"] = 1
        with pytest.raises(InvalidSpec, match="surprise"):
            HostSpec.from_dict(doc)

    def test_from_dict_rejects_missing_generator(self):
        with pytest.raises(InvalidSpec, match="generator"):
            HostSpec.from_dict({"format": "repro-host", "version": 1})

    def test_materialize_equals_registry_build(self):
        spec = HostSpec("kautz", params={"d": 2, "diameter": 2})
        g = spec.materialize()
        h = kautz_graph(2, 2)
        assert sorted(g.edges()) == sorted(h.edges())

    def test_round_trip_property(self):
        values = st.one_of(
            st.integers(min_value=-10**6, max_value=10**6),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=12),
            st.booleans(),
        )

        @given(
            generator=st.text(min_size=1, max_size=16),
            params=st.dictionaries(
                st.text(min_size=1, max_size=8), values, max_size=4
            ),
            seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**63)),
        )
        def check(generator, params, seed):
            spec = HostSpec(generator, params=params, seed=seed)
            again = HostSpec.from_json(spec.to_json())
            assert again == spec
            assert again.fingerprint() == spec.fingerprint()

        check()


# -- cross-process determinism ----------------------------------------


_DETERMINISM_SCRIPT = """
import hashlib, json, sys
from repro import HostSpec

doc = json.loads(sys.argv[1])
spec = HostSpec.from_dict(doc)
graph = spec.materialize()
edges = sorted(
    (json.dumps(u, sort_keys=True), json.dumps(v, sort_keys=True), w)
    for u, v, w in graph.edges()
)
digest = hashlib.sha256(json.dumps(edges).encode()).hexdigest()
print(spec.fingerprint(), digest)
"""

_DETERMINISM_SPECS = [
    HostSpec("kautz", params={"d": 2, "diameter": 2}),
    HostSpec("dcell", params={"n": 3, "level": 1}),
    HostSpec("hypercube", params={"dim": 4}),
    HostSpec("gnp", params={"n": 18, "p": 0.3}, seed=5),
    HostSpec("watts-strogatz", params={"n": 18, "k": 4, "p": 0.2}, seed=5),
    HostSpec("powerlaw-cluster", params={"n": 18, "m": 2, "p": 0.4}, seed=5),
]


@pytest.mark.parametrize(
    "spec", _DETERMINISM_SPECS, ids=lambda s: s.generator
)
def test_fingerprint_and_graph_survive_hash_seed(spec):
    """Spec fingerprints and built graphs are PYTHONHASHSEED-independent.

    Worker processes on other machines rebuild hosts from specs; if
    either the fingerprint or the construction drew on hash order, the
    scheduler's manifests and the merged sweep bytes would diverge.
    """
    payload = json.dumps(spec.to_dict())
    outputs = set()
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, payload],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


# -- structured families ----------------------------------------------


class TestKautz:
    def test_closed_form_counts(self):
        for d, diameter in [(2, 2), (2, 3), (3, 2)]:
            g = kautz_graph(d, diameter)
            assert g.directed
            assert g.num_vertices == (d + 1) * d**diameter
            assert g.num_edges == g.num_vertices * d

    def test_unique_shortest_paths(self):
        """Every ordered pair is joined by exactly one shortest path.

        The defining property of Kautz interconnects (and why they are
        the adversarial host for spanner sparsification: no arc has an
        equal-length substitute). Checked by counting shortest paths
        with a BFS DAG pass.
        """
        g = kautz_graph(2, 2)
        verts = list(g.vertices())
        for s in verts:
            dist = dijkstra(g, s)  # reached vertices only
            # count shortest paths in increasing-distance order
            counts = {s: 1}
            for v in sorted(dist, key=dist.__getitem__):
                if v == s:
                    continue
                counts[v] = sum(
                    counts.get(u, 0)
                    for u in verts
                    if g.has_edge(u, v)
                    and dist.get(u, float("inf")) + g.weight(u, v) == dist[v]
                )
            for v, count in counts.items():
                assert count == 1, (s, v, count)


class TestDCell:
    @pytest.mark.parametrize("n,level", [(2, 0), (4, 0), (2, 1), (3, 1), (4, 1)])
    def test_closed_form_counts(self, n, level):
        expected_n, expected_m = dcell_counts(n, level)
        g = HostSpec("dcell", params={"n": n, "level": level}).materialize()
        assert g.num_vertices == expected_n
        assert g.num_edges == expected_m

    def test_connected(self):
        g = HostSpec("dcell", params={"n": 3, "level": 1}).materialize()
        start = next(iter(g.vertices()))
        assert set(dijkstra(g, start)) == set(g.vertices())


# -- corpus loader -----------------------------------------------------


class TestCorpus:
    def test_load_and_content_cache(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("# directed\n0 1\n1 2 2.5\n2 0\n")
        spec = HostSpec("corpus", params={"path": str(path)})
        g1 = spec.materialize()
        assert g1.directed and g1.num_edges == 3
        # A renamed byte-identical file shares the cached instance.
        copy = tmp_path / "renamed.edges"
        copy.write_text(path.read_text())
        g2 = HostSpec("corpus", params={"path": str(copy)}).materialize()
        assert g2 is g1
        # Editing the file invalidates (content hash, not mtime).
        path.write_text("0 1\n1 2\n")
        g3 = spec.materialize()
        assert g3 is not g1
        assert not g3.directed and g3.num_edges == 2

    def test_plan_fingerprint_tracks_corpus_content(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("0 1\n1 2\n")
        spec = HostSpec("corpus", params={"path": str(path)})
        plan = SweepPlan.build(
            [SpannerSpec("greedy", stretch=3, seed=1, graph=spec)],
            name="corpus",
        )
        before = plan.fingerprint()
        digest_before = corpus_content_digest(str(path))
        path.write_text("0 1\n1 2\n2 3\n")
        # Content digest changed, so the spec-derived plan fingerprint
        # must change with it (manifests track the file, not the path).
        assert corpus_content_digest(str(path)) != digest_before
        assert plan.fingerprint() != before


# -- dispatch: directed hosts -----------------------------------------


class TestDirectedDispatch:
    def test_directed_csr_native_paths_unchanged(self):
        n = MIN_DISPATCH_VERTICES
        assert resolve_method("auto", n, directed=True) == "csr"
        assert resolve_method("csr", 4, directed=True) == "csr"

    def test_undirected_only_pipelines_fall_back(self):
        n = MIN_DISPATCH_VERTICES
        assert (
            resolve_method("auto", n, directed=True, directed_csr=False)
            == "dict"
        )

    def test_explicit_csr_raises_for_undirected_only(self):
        with pytest.raises(ValueError, match="undirected-only"):
            resolve_method("csr", 4, directed=True, directed_csr=False)

    @pytest.mark.parametrize("build", [
        lambda g: __import__(
            "repro.spanners.thorup_zwick", fromlist=["thorup_zwick_spanner"]
        ).thorup_zwick_spanner(g, 2, seed=0, method="csr"),
        lambda g: __import__(
            "repro.spanners.distance_oracle", fromlist=["build_distance_oracle"]
        ).build_distance_oracle(g, 2, seed=0, method="csr"),
        lambda g: __import__(
            "repro.core.clpr", fromlist=["clpr_fault_tolerant_spanner"]
        ).clpr_fault_tolerant_spanner(g, 2, 0, seed=0, method="csr"),
    ], ids=["thorup-zwick", "tz-oracle", "clpr09"])
    def test_pipelines_refuse_explicit_csr_on_digraph(self, build):
        g = kautz_graph(2, 2)
        with pytest.raises(ValueError, match="undirected-only"):
            build(g)


# -- session + spec integration ---------------------------------------


class TestSessionIntegration:
    def test_build_on_host_spec_binding(self):
        spec = HostSpec("dcell", params={"n": 3, "level": 1})
        session = Session(seed=0)
        report = session.build(SpannerSpec("greedy", stretch=3, graph=spec))
        assert report.size > 0

    def test_host_cache_shared_across_builds(self):
        spec = HostSpec("gnp-connected", params={"n": 30, "p": 0.2}, seed=4)
        session = Session(seed=0)
        a = session.resolve_graph(SpannerSpec("greedy", graph=spec))
        b = session.resolve_graph(SpannerSpec("thorup-zwick", graph=spec))
        assert a is b

    def test_graph_argument_accepts_host_spec(self):
        session = Session(seed=0)
        report = session.build(
            SpannerSpec("greedy", stretch=3),
            graph=HostSpec("complete", params={"n": 8}),
        )
        assert report.size > 0

    def test_spanner_spec_serializes_host_spec(self):
        host = HostSpec("kautz", params={"d": 2, "diameter": 2})
        spec = SpannerSpec("greedy", stretch=3, seed=1, graph=host)
        again = SpannerSpec.from_json(spec.to_json())
        assert again.graph == host
        assert again.fingerprint() == spec.fingerprint()


# -- grid sweeps -------------------------------------------------------


def _grid_topologies():
    return [
        HostSpec("kautz", params={"d": 2, "diameter": 2}),
        HostSpec("dcell", params={"n": 3, "level": 1}),
        HostSpec("watts-strogatz", params={"n": 16, "k": 4, "p": 0.2}, seed=2),
        HostSpec("powerlaw-cluster", params={"n": 16, "m": 2, "p": 0.3}, seed=2),
        HostSpec("gnp-connected", params={"n": 16, "p": 0.3}, seed=2),
    ]


class TestGridSweeps:
    def test_emit_refuses_directed_x_undirected(self):
        with pytest.raises(InvalidSpec, match="undirected"):
            emit_grid_plan(
                algorithms=["baswana-sen"],
                stretches=[3],
                rs=[0],
                topologies=[HostSpec("kautz", params={"d": 2, "diameter": 2})],
            )

    def test_emit_records_skips_over_five_families(self):
        plan = emit_grid_plan(
            algorithms=["greedy", "baswana-sen"],
            stretches=[3],
            rs=[0],
            topologies=_grid_topologies(),
            skip_unsupported=True,
        )
        assert len(plan.hosts) == 5
        assert all(isinstance(h, HostSpec) for h in plan.hosts.values())
        # kautz x baswana-sen is the one impossible point in this grid.
        assert len(plan.skipped) == 1
        assert "kautz" in plan.skipped[0] and "baswana-sen" in plan.skipped[0]
        # 5 hosts x 2 algorithms - 1 refusal
        assert len(plan) == 9

    def test_emit_validates_topologies_eagerly(self):
        with pytest.raises(InvalidSpec, match="seed"):
            emit_grid_plan(
                algorithms=["greedy"],
                stretches=[3],
                rs=[0],
                topologies=[HostSpec("gnp", params={"n": 8, "p": 0.5})],
            )

    def test_plan_round_trip_keeps_host_specs(self):
        plan = emit_grid_plan(
            algorithms=["greedy"],
            stretches=[3],
            rs=[0],
            topologies=_grid_topologies(),
        )
        again = SweepPlan.from_json(plan.to_json())
        assert again.fingerprint() == plan.fingerprint()
        assert set(again.hosts) == set(plan.hosts)
        assert all(isinstance(h, HostSpec) for h in again.hosts.values())

    def test_parallel_workers_match_sequential_bytes(self):
        plan = emit_grid_plan(
            algorithms=["greedy", "theorem21"],
            stretches=[3],
            rs=[0, 1],
            topologies=_grid_topologies(),
            fault_kind="vertex",
            skip_unsupported=True,
        )
        sequential = run_sweep(plan, workers=1)
        parallel = run_sweep(plan, workers=2)
        seq_doc = json.dumps(
            [r.to_dict() for r in sequential], sort_keys=True
        )
        par_doc = json.dumps(
            [r.to_dict() for r in parallel], sort_keys=True
        )
        assert seq_doc == par_doc

    def test_host_spec_key_is_spec_derived(self):
        spec = HostSpec("dcell", params={"n": 3, "level": 1})
        assert host_spec_key(spec) == f"dcell-{spec.fingerprint()}"
