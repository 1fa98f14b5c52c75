"""The spec layer: round-trips, validation errors, registry metadata."""

from __future__ import annotations

import json
import random

import pytest

from repro import ReproError
from repro.errors import InvalidSpec, RegistryError, SpecError, UnknownAlgorithm
from repro.graph import Graph, complete_graph, gnp_random_digraph
from repro.registry import (
    available_algorithms,
    describe_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.session import Session
from repro.spec import (
    BuildReport,
    FaultModel,
    SpannerSpec,
    require_fault_kind,
    require_stretch,
    stretch_to_levels,
)


def _random_spec(rng: random.Random) -> SpannerSpec:
    """A random (valid) spec over the registered algorithm names."""
    kind = rng.choice(["none", "vertex", "edge"])
    faults = FaultModel(kind, 0 if kind == "none" else rng.randint(0, 4))
    params = rng.choice(
        [
            {},
            {"schedule": "light", "constant": 2.0},
            {"iterations": rng.randint(1, 50)},
            {"note": "free-form", "flag": True, "nested": {"a": [1, 2, 3]}},
        ]
    )
    return SpannerSpec(
        algorithm=rng.choice(available_algorithms()),
        stretch=rng.choice([1, 2, 3, 3.5, 5, 7]),
        faults=faults,
        method=rng.choice(["auto", "csr", "dict"]),
        seed=rng.choice([None, 0, rng.randint(-100, 10_000)]),
        params=params,
    )


class TestRoundTrip:
    def test_dict_round_trip_property(self):
        """from_dict(to_dict(spec)) == spec across 200 random specs."""
        rng = random.Random(1234)
        for _ in range(200):
            spec = _random_spec(rng)
            assert SpannerSpec.from_dict(spec.to_dict()) == spec

    def test_json_text_round_trip_property(self):
        rng = random.Random(99)
        for _ in range(50):
            spec = _random_spec(rng)
            again = SpannerSpec.from_json(spec.to_json())
            assert again == spec
            # Canonical text is itself stable under a second round trip.
            assert again.to_json() == spec.to_json()

    def test_inline_graph_round_trip(self):
        g = Graph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("b", ("rack", 3), 1.5)
        spec = SpannerSpec("greedy", stretch=3, graph=g)
        again = SpannerSpec.from_dict(spec.to_dict())
        assert sorted(again.graph.edges()) == sorted(g.edges())

    def test_path_graph_binding_survives(self):
        spec = SpannerSpec("greedy", stretch=3, graph="some/host.json")
        assert SpannerSpec.from_dict(spec.to_dict()).graph == "some/host.json"

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "spec.json")
        spec = SpannerSpec(
            "theorem21", stretch=3, faults=FaultModel.vertex(2), seed=7,
            params={"schedule": "light"},
        )
        spec.save(path)
        assert SpannerSpec.load(path) == spec

    def test_fingerprint_stable_and_sensitive(self):
        a = SpannerSpec("greedy", stretch=3, seed=1)
        b = SpannerSpec("greedy", stretch=3, seed=1)
        c = SpannerSpec("greedy", stretch=3, seed=2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        # The graph binding is execution detail, not problem identity.
        bound = SpannerSpec("greedy", stretch=3, seed=1, graph="x.json")
        assert bound.fingerprint() == a.fingerprint()

    def test_replace_revalidates(self):
        spec = SpannerSpec("greedy", stretch=3)
        assert spec.replace(stretch=5).stretch == 5
        with pytest.raises(InvalidSpec):
            spec.replace(stretch=0.5)


class TestValidation:
    """Invalid specs raise ReproError subclasses with actionable messages."""

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"algorithm": ""}, "algorithm"),
            ({"algorithm": 3}, "algorithm"),
            ({"stretch": 0.5}, "stretch"),
            ({"stretch": "three"}, "stretch"),
            ({"method": "gpu"}, "method"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"faults": "vertex"}, "FaultModel"),
            ({"params": {"fn": len}}, "JSON"),
            ({"params": {1: "x"}}, "params keys"),
            ({"graph": 42}, "graph"),
            ({"stretch": float("nan")}, "stretch"),
        ],
    )
    def test_invalid_fields(self, kwargs, needle):
        base = dict(algorithm="greedy", stretch=3)
        base.update(kwargs)
        with pytest.raises(InvalidSpec) as excinfo:
            SpannerSpec(**base)
        assert needle in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)

    @pytest.mark.parametrize(
        "kind,r,needle",
        [
            ("node", 1, "kind"),
            ("vertex", -1, ">= 0"),
            ("vertex", 1.5, "int"),
            ("none", 2, "r=0"),
        ],
    )
    def test_invalid_fault_models(self, kind, r, needle):
        with pytest.raises(InvalidSpec) as excinfo:
            FaultModel(kind, r)
        assert needle in str(excinfo.value)

    def test_from_dict_rejects_unknown_keys(self):
        doc = SpannerSpec("greedy", stretch=3).to_dict()
        doc["stretchh"] = 5
        with pytest.raises(InvalidSpec) as excinfo:
            SpannerSpec.from_dict(doc)
        assert "stretchh" in str(excinfo.value)

    def test_from_dict_rejects_nan_stretch(self):
        """``json`` reads a bare NaN; the spec must not build the whole host."""
        text = SpannerSpec("greedy", stretch=3).to_json()
        doc = json.loads(text.replace('"stretch": 3', '"stretch": NaN'))
        assert doc["stretch"] != doc["stretch"]
        with pytest.raises(InvalidSpec) as excinfo:
            SpannerSpec.from_dict(doc)
        assert "stretch" in str(excinfo.value)

    def test_from_dict_rejects_wrong_format_and_version(self):
        with pytest.raises(InvalidSpec):
            SpannerSpec.from_dict({"format": "not-a-spec", "algorithm": "greedy"})
        doc = SpannerSpec("greedy", stretch=3).to_dict()
        doc["version"] = 999
        with pytest.raises(InvalidSpec):
            SpannerSpec.from_dict(doc)

    def test_from_dict_requires_algorithm(self):
        with pytest.raises(InvalidSpec) as excinfo:
            SpannerSpec.from_dict({"format": "repro-spec", "version": 1})
        assert "algorithm" in str(excinfo.value)

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(InvalidSpec):
            SpannerSpec.from_json("{not json")

    def test_error_hierarchy(self):
        assert issubclass(InvalidSpec, SpecError)
        assert issubclass(UnknownAlgorithm, RegistryError)
        assert issubclass(SpecError, ReproError)

    def test_stretch_helpers(self):
        spec = SpannerSpec("baswana-sen", stretch=5)
        assert stretch_to_levels(spec) == 3
        with pytest.raises(InvalidSpec) as excinfo:
            stretch_to_levels(SpannerSpec("baswana-sen", stretch=4))
        assert "odd integer" in str(excinfo.value)
        with pytest.raises(InvalidSpec):
            require_stretch(SpannerSpec("ft2-approx", stretch=3), 2)
        with pytest.raises(InvalidSpec) as excinfo:
            require_fault_kind(
                SpannerSpec("theorem21", stretch=3, faults=FaultModel.edge(1)),
                "vertex", "none",
            )
        assert "edge" in str(excinfo.value)

    def test_params_are_copied_not_aliased(self):
        knobs = {"schedule": "light"}
        spec = SpannerSpec("theorem21", stretch=3, params=knobs)
        knobs["schedule"] = "theorem"
        assert spec.param("schedule") == "light"

    def test_params_are_read_only(self):
        """Frozen means frozen: params cannot drift after validation."""
        spec = SpannerSpec("theorem21", stretch=3, params={"schedule": "light"})
        fingerprint = spec.fingerprint()
        with pytest.raises(TypeError):
            spec.params["schedule"] = "theorem"
        with pytest.raises(TypeError):
            spec.params["new_key"] = object()
        assert spec.fingerprint() == fingerprint


class TestRegistry:
    def test_expected_algorithms_present(self):
        names = available_algorithms()
        assert names == tuple(sorted(names))
        for expected in (
            "greedy", "baswana-sen", "thorup-zwick", "tz-oracle",
            "theorem21", "clpr09", "ft2-approx",
            "dk10-baseline", "distributed-ft", "distributed-ft2",
        ):
            assert expected in names

    def test_unknown_algorithm_lists_available(self):
        with pytest.raises(UnknownAlgorithm) as excinfo:
            get_algorithm("dijkstra-spanner")
        message = str(excinfo.value)
        assert "dijkstra-spanner" in message
        assert "greedy" in message  # actionable: names what exists

    def test_capability_rows_are_json_able(self):
        rows = describe_algorithms()
        assert len(rows) == len(available_algorithms())
        json.dumps(rows)  # must not raise
        for row in rows:
            assert set(row) == {
                "name", "summary", "stretch_domain", "weighted", "directed",
                "fault_tolerant", "distributed", "csr_path", "compiled_path",
                "lp_path", "fault_kinds", "stretch_kind", "fixed_stretch",
            }
        lp_rows = {row["name"] for row in rows if row["lp_path"]}
        assert lp_rows == {"ft2-approx", "dk10-baseline", "distributed-ft2"}

    def test_capability_flags_match_paper_structure(self):
        assert get_algorithm("theorem21").fault_tolerant
        assert not get_algorithm("greedy").fault_tolerant
        assert get_algorithm("distributed-ft").distributed
        assert get_algorithm("ft2-approx").directed
        assert not get_algorithm("baswana-sen").directed

    @pytest.mark.parametrize(
        "algorithm", ["ft2-approx", "dk10-baseline", "distributed-ft2"]
    )
    def test_lp_path_specs_name_no_solver_but_highs(self, algorithm):
        """HiGHS is the one LP solver: ``params.backend`` "auto" and
        "scipy" change nothing, and any other value is refused."""
        host = gnp_random_digraph(8, 0.5, seed=1)

        def build(params):
            spec = SpannerSpec(
                algorithm, stretch=2, faults=FaultModel.vertex(1), seed=3,
                params=params,
            )
            doc = Session().build(spec, graph=host).to_dict(include_spanner=True)
            # The spec and its hash echo the params; the build must not.
            assert doc.pop("spec")["params"] == params
            del doc["rng_fingerprint"]
            return doc

        plain = build({})
        for backend in ("auto", "scipy"):
            assert build({"backend": backend}) == plain
        for backend in ("simplex", "gurobi", None):
            with pytest.raises(InvalidSpec, match="'scipy'"):
                build({"backend": backend})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            register_algorithm(
                "greedy", summary="dup", stretch_domain="any"
            )(lambda graph, spec, seed: (graph, {}))

    def test_bad_name_rejected(self):
        with pytest.raises(RegistryError):
            register_algorithm("", summary="x", stretch_domain="y")


class TestBuildReport:
    def test_report_round_trip(self):
        g = complete_graph(5)
        spec = SpannerSpec("greedy", stretch=3, seed=1)
        report = BuildReport(
            spec=spec,
            artifact=g,
            size=g.num_edges,
            resolved_method="dict",
            resolved_seed=1,
            rng_fingerprint="abc123",
            wall_time_s=0.5,
            stats={"iterations": 3},
        )
        doc = report.to_dict(include_spanner=True, include_timing=True)
        again = BuildReport.from_dict(doc)
        assert again.spec == spec
        assert again.size == report.size
        assert sorted(again.spanner.edges()) == sorted(g.edges())
        assert again.stats == {"iterations": 3}

    def test_to_dict_is_deterministic_without_timing(self):
        g = complete_graph(4)
        spec = SpannerSpec("greedy", stretch=3, seed=1)
        a = BuildReport(spec, g, g.num_edges, "dict", 1, "fp", 0.123, {})
        b = BuildReport(spec, g, g.num_edges, "dict", 1, "fp", 9.876, {})
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
