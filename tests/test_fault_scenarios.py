"""FaultScenario + masked SurvivorView execution: the zero-copy contract.

The centralized per-survivor loops (Theorem 2.1 conversion, its edge
variant, CLPR09) run on masked :class:`repro.graph.csr.SurvivorView`\\ s
behind one :class:`repro.graph.FaultScenario` vocabulary; the LOCAL
simulator runs on the materialized survivor graph. These tests pin
the two invariants that make that safe:

* scenarios round-trip strictly through JSON (format/version tags,
  unknown-key rejection) like every other spec type;
* every masked execution is output-, trace-, and RNG-stream-identical to
  the materialized-subgraph dict reference, per seed and across
  hash-randomized interpreters.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clpr import clpr_fault_tolerant_spanner
from repro.core.conversion import fault_tolerant_spanner, survival_probability
from repro.core.verify import is_fault_tolerant_spanner
from repro.distributed import distributed_ft_spanner
from repro.distsim import NodeAlgorithm, Simulation, SimulationTracer
from repro.errors import FaultToleranceError, InvalidSpec
from repro.graph import (
    FaultScenario,
    Graph,
    complete_digraph,
    complete_graph,
    connected_gnp_graph,
    csr_snapshot,
    gnp_random_graph,
    scenario_fault_sets,
)
from repro.rng import derive_rng, ensure_rng
from repro.compiled import compiled_available
from repro.session import Session
from repro.spec import FaultModel, SpannerSpec


def edge_set(g):
    return sorted((u, v, w) for u, v, w in g.edges())


# ---------------------------------------------------------------------------
# The scenario value itself
# ---------------------------------------------------------------------------


class TestFaultScenarioValue:
    def test_constructors_and_kinds(self):
        assert FaultScenario.none().is_null
        sc = FaultScenario.vertex([3, 1], seed=7, iteration=2)
        assert sc.kind == "vertex" and sc.fault_set() == {1, 3}
        assert sc.seed == 7 and sc.iteration == 2
        ec = FaultScenario.edge([(0, 1)], seed=5)
        assert ec.kind == "edge" and ec.edge_fault_set() == {(0, 1)}

    def test_kind_field_mismatches_rejected(self):
        with pytest.raises(InvalidSpec):
            FaultScenario("none", vertices=(1,))
        with pytest.raises(InvalidSpec):
            FaultScenario("vertex", edges=((0, 1),))
        with pytest.raises(InvalidSpec):
            FaultScenario("bogus")
        with pytest.raises(InvalidSpec):
            FaultScenario("edge", edges=((0, 1, 2),))
        with pytest.raises(InvalidSpec):
            FaultScenario.vertex([1], iteration=-1)
        with pytest.raises(InvalidSpec):
            FaultScenario.vertex([1], seed="nope")

    def test_sample_vertices_matches_loop_draws(self):
        verts = list(range(20))
        a, b = random.Random(4), random.Random(4)
        sc = FaultScenario.sample_vertices(verts, 0.5, a)
        expected = [v for v in verts if not (b.random() < 0.5)]
        assert list(sc.vertices) == expected
        # identical stream consumption: both generators are in step
        assert a.random() == b.random()

    def test_json_round_trip_strictness(self):
        sc = FaultScenario.vertex([1, 2], seed=9, iteration=0)
        doc = sc.to_dict()
        assert doc["format"] == "repro-fault-scenario"
        assert FaultScenario.from_json(sc.to_json()) == sc
        with pytest.raises(InvalidSpec):
            FaultScenario.from_dict({**doc, "surprise": 1})
        with pytest.raises(InvalidSpec):
            FaultScenario.from_dict({**doc, "format": "other"})
        with pytest.raises(InvalidSpec):
            FaultScenario.from_dict({**doc, "version": 99})
        with pytest.raises(InvalidSpec):
            FaultScenario.from_json("{not json")
        with pytest.raises(InvalidSpec):
            FaultScenario.vertex([object()]).to_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["none", "vertex", "edge"]),
        verts=st.lists(st.integers(0, 50), max_size=6, unique=True),
        seed=st.one_of(st.none(), st.integers(0, 2**40)),
        iteration=st.one_of(st.none(), st.integers(0, 500)),
    )
    def test_round_trip_property(self, kind, verts, seed, iteration):
        if kind == "vertex":
            sc = FaultScenario.vertex(verts, seed=seed, iteration=iteration)
        elif kind == "edge":
            sc = FaultScenario.edge(
                [(v, v + 1) for v in verts], seed=seed, iteration=iteration
            )
        else:
            sc = FaultScenario("none", seed=seed, iteration=iteration)
        back = FaultScenario.from_json(sc.to_json())
        assert back == sc
        assert back.fingerprint() == sc.fingerprint()

    def test_normalizers(self):
        assert scenario_fault_sets([(1, 2), FaultScenario.vertex([3])]) == [
            (1, 2), (3,)
        ]
        assert scenario_fault_sets(
            [FaultScenario.edge([(0, 1)]), [(2, 3)]], kind="edge"
        ) == [((0, 1),), ((2, 3),)]
        with pytest.raises(InvalidSpec):
            scenario_fault_sets([FaultScenario.edge([(0, 1)])])
        with pytest.raises(InvalidSpec):
            scenario_fault_sets([FaultScenario.vertex([1])], kind="edge")
        with pytest.raises(InvalidSpec):
            scenario_fault_sets([(1, 2)], kind="edges")


# ---------------------------------------------------------------------------
# Edge-masked SurvivorView
# ---------------------------------------------------------------------------


class TestEdgeMaskedView:
    def _snap(self):
        g = connected_gnp_graph(12, 0.4, seed=1)
        return g, csr_snapshot(g)

    def test_edge_mask_filters_edges_keeps_vertices(self):
        g, snap = self._snap()
        edge_alive = [True] * snap.num_edges
        edge_alive[0] = edge_alive[3] = False
        view = snap.survivor_view(edge_alive=edge_alive)
        assert view.is_masked
        ids = view.filter_edge_ids(range(snap.num_edges)).tolist()
        assert 0 not in ids and 3 not in ids
        assert len(ids) == snap.num_edges - 2
        # edge_subgraph semantics: every host vertex survives
        sub = snap.materialize_edge_ids(ids)
        assert sub.num_vertices == g.num_vertices
        assert sub.num_edges == snap.num_edges - 2

    def test_combined_masks(self):
        g, snap = self._snap()
        alive = [True] * snap.num_vertices
        alive[0] = False
        edge_alive = [True] * snap.num_edges
        edge_alive[1] = False
        view = snap.survivor_view(alive, edge_alive=edge_alive)
        # an edge survives iff its id and both endpoints do; order is kept
        order = list(range(snap.num_edges))[::-1]
        ids = view.filter_edge_ids(order).tolist()
        assert ids == [
            e for e in order
            if edge_alive[e] and alive[snap.edge_u[e]] and alive[snap.edge_v[e]]
        ]
        assert 1 not in ids
        for e in ids:
            assert snap.edge_u[e] != 0 and snap.edge_v[e] != 0
        ref = snap.materialize_edge_ids(ids)
        assert ref.num_edges == len(ids)

    def test_masked_weights_and_half_alive(self):
        g, snap = self._snap()
        edge_alive = [True] * snap.num_edges
        edge_alive[2] = False
        view = snap.survivor_view(edge_alive=edge_alive)
        data = view.masked_weights()
        half = view._half_ok()
        _indptr, _nbr, wt, eid, _deg = snap.half_arrays_np()
        for pos in range(len(half)):
            if eid[pos] == 2:
                assert not half[pos] and data[pos] == np.inf
            else:
                assert half[pos] and data[pos] == wt[pos]


# ---------------------------------------------------------------------------
# Conversion pipelines on views
# ---------------------------------------------------------------------------


class TestConversionOnViews:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_vertex_conversion_paths_identical(self, seed):
        g = gnp_random_graph(48, 0.18, seed=seed)
        a = fault_tolerant_spanner(g, 3, 2, iterations=5, seed=seed, method="csr")
        b = fault_tolerant_spanner(g, 3, 2, iterations=5, seed=seed, method="dict")
        assert edge_set(a.spanner) == edge_set(b.spanner)
        assert a.stats.survivor_sizes == b.stats.survivor_sizes
        assert a.stats.iteration_edge_counts == b.stats.iteration_edge_counts
        assert a.stats.union_edge_counts == b.stats.union_edge_counts

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_edge_conversion_paths_identical(self, seed):
        g = gnp_random_graph(48, 0.18, seed=seed)
        a = fault_tolerant_spanner(g, 3, 2, iterations=5, seed=seed,
                                   method="csr", kind="edge")
        b = fault_tolerant_spanner(g, 3, 2, iterations=5, seed=seed,
                                   method="dict", kind="edge")
        assert edge_set(a.spanner) == edge_set(b.spanner)
        assert a.stats.survivor_sizes == b.stats.survivor_sizes
        assert a.stats.iteration_edge_counts == b.stats.iteration_edge_counts
        assert a.stats.union_edge_counts == b.stats.union_edge_counts

    def test_edge_conversion_directed_host(self):
        g = complete_digraph(6)
        a = fault_tolerant_spanner(g, 2, 1, iterations=4, seed=5,
                                   method="csr", kind="edge")
        b = fault_tolerant_spanner(g, 2, 1, iterations=4, seed=5,
                                   method="dict", kind="edge")
        assert edge_set(a.spanner) == edge_set(b.spanner)
        assert a.stats.survivor_sizes == b.stats.survivor_sizes

    def test_scenario_replay_reproduces_sampled_run(self):
        g = gnp_random_graph(40, 0.2, seed=3)
        p = survival_probability(2)
        verts = list(g.vertices())
        rng = ensure_rng(11)
        scs = [
            FaultScenario.sample_vertices(
                verts, p, derive_rng(rng, i), seed=11, iteration=i
            )
            for i in range(5)
        ]
        ref = fault_tolerant_spanner(g, 3, 2, iterations=5, seed=11)
        for m in ("csr", "dict"):
            rep = fault_tolerant_spanner(g, 3, 2, method=m, scenarios=scs)
            assert edge_set(rep.spanner) == edge_set(ref.spanner)
            assert rep.stats.survivor_sizes == ref.stats.survivor_sizes
            assert rep.stats.iterations == 5

    def test_scenario_kind_validation(self):
        g = gnp_random_graph(10, 0.5, seed=0)
        edge_sc = FaultScenario.edge([next((u, v) for u, v, _ in g.edges())])
        vert_sc = FaultScenario.vertex([next(iter(g.vertices()))])
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner(g, 3, 1, scenarios=[edge_sc])
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner(g, 3, 1, scenarios=[vert_sc], kind="edge")
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner(g, 3, 1, scenarios=[])
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner(g, 3, 1, scenarios=[("not", "a", "scenario")])


class TestScenarioReplayMasks:
    """A replayed scenario becomes one survivor mask on every path."""

    @pytest.mark.parametrize("method", ["dict", "csr", "auto"])
    def test_digraph_edge_scenario_drops_only_the_named_arc(self, method):
        g = complete_digraph(5)
        rep = fault_tolerant_spanner(
            g, 1.0, 1, scenarios=[FaultScenario.edge([(0, 1)])],
            method=method, kind="edge",
        )
        assert rep.stats.survivor_sizes == [19]
        assert rep.spanner.num_edges == 19
        assert rep.spanner.has_edge(1, 0) and not rep.spanner.has_edge(0, 1)

    @pytest.mark.parametrize("method", ["dict", "csr", "auto"])
    def test_undirected_edge_scenario_accepts_either_orientation(self, method):
        g = complete_graph(5)
        for pair in ((0, 1), (1, 0)):
            rep = fault_tolerant_spanner(
                g, 1.0, 1, scenarios=[FaultScenario.edge([pair])],
                method=method, kind="edge",
            )
            assert rep.stats.survivor_sizes == [9]
            assert not rep.spanner.has_edge(0, 1)

    @pytest.mark.parametrize("method", ["dict", "csr", "auto"])
    def test_vertex_the_host_lacks_is_rejected(self, method):
        g = complete_graph(5)
        with pytest.raises(FaultToleranceError, match="99"):
            fault_tolerant_spanner(
                g, 3, 1, scenarios=[FaultScenario.vertex([0, 99])],
                method=method,
            )

    @pytest.mark.parametrize("method", ["dict", "csr", "auto"])
    def test_edge_the_host_lacks_is_rejected(self, method):
        path = Graph()
        path.add_edge(0, 1)
        path.add_edge(1, 2)
        with pytest.raises(FaultToleranceError, match=r"\(0, 2\)"):
            fault_tolerant_spanner(
                path, 3, 1, scenarios=[FaultScenario.edge([(0, 2)])],
                method=method, kind="edge",
            )
        # On a digraph the reverse arc is another edge.
        g = complete_digraph(4)
        g.remove_edge(0, 1)
        with pytest.raises(FaultToleranceError, match=r"\(0, 1\)"):
            fault_tolerant_spanner(
                g, 3, 1, scenarios=[FaultScenario.edge([(0, 1)])],
                method=method, kind="edge",
            )


# ---------------------------------------------------------------------------
# CLPR on views
# ---------------------------------------------------------------------------


class TestCLPROnViews:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_paths_identical(self, seed):
        g = gnp_random_graph(50, 0.16, seed=seed)
        a = clpr_fault_tolerant_spanner(g, 2, 1, seed=seed, method="csr")
        b = clpr_fault_tolerant_spanner(g, 2, 1, seed=seed, method="dict")
        assert edge_set(a.spanner) == edge_set(b.spanner)
        assert a.fault_sets_processed == b.fault_sets_processed

    def test_explicit_scenarios(self):
        g = gnp_random_graph(40, 0.2, seed=5)
        verts = list(g.vertices())[:5]
        scs = [FaultScenario.none()] + [FaultScenario.vertex([v]) for v in verts]
        a = clpr_fault_tolerant_spanner(g, 2, 1, seed=5, method="csr",
                                        scenarios=scs)
        b = clpr_fault_tolerant_spanner(g, 2, 1, seed=5, method="dict",
                                        scenarios=scs)
        raw = clpr_fault_tolerant_spanner(
            g, 2, 1, seed=5, method="csr",
            scenarios=[()] + [(v,) for v in verts],
        )
        assert edge_set(a.spanner) == edge_set(b.spanner) == edge_set(raw.spanner)
        assert a.fault_sets_processed == len(scs)
        with pytest.raises(FaultToleranceError):
            clpr_fault_tolerant_spanner(
                g, 2, 1, scenarios=[FaultScenario.vertex(verts[:3])]
            )


# ---------------------------------------------------------------------------
# The LOCAL simulator on masked views
# ---------------------------------------------------------------------------


class _Gossip(NodeAlgorithm):
    """Two rounds of randomized gossip — exercises RNG + message order."""

    def on_start(self, ctx):
        ctx.state["token"] = ctx.rng.random()
        ctx.broadcast(("t", ctx.state["token"]))

    def on_round(self, ctx, inbox):
        if ctx.round >= 2:
            ctx.halt(result=round(sum(t for _k, t in inbox.values()), 9))
            return
        ctx.broadcast(("t", ctx.state["token"] + len(inbox)))


class TestSimulatorOnViews:
    """Simulations of a fault set's survivor graph, pinned to recorded
    outputs. The pins were recorded while an array round engine still ran
    zero-copy on the masked view and matched the dict loop exactly; the
    dict materialization (``induced_subgraph`` / ``edge_subgraph``, what
    the LOCAL pipelines simulate) must still reproduce them."""

    #: ``(kind, seed) -> (rounds, messages, digest)`` of the gossip runs.
    PINNED = {
        ("vertex", 0): (2, 384, "5ddc7072de746b68"),
        ("vertex", 1): (2, 296, "9bb25493bc522a10"),
        ("vertex", 7): (2, 228, "960f43a24505c973"),
        ("edge", 0): (2, 364, "9a8c2bf3adb742ce"),
        ("edge", 1): (2, 380, "88baa4261d689453"),
        ("edge", 7): (2, 384, "d7c1db4f48767d70"),
    }

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_masked_engine_matches_dict_reference(self, kind, seed,
                                                  output_digest):
        g = connected_gnp_graph(30, 0.25, seed=seed)
        rng = random.Random(seed)
        if kind == "vertex":
            faults = {v for v in g.vertices() if rng.random() < 0.2}
            survivors = g.induced_subgraph(
                v for v in g.vertices() if v not in faults
            )
        else:
            faults = [(u, v) for u, v, _w in g.edges() if rng.random() < 0.2]
            survivors = g.edge_subgraph(
                (u, v) for u, v, _w in g.edges() if (u, v) not in faults
            )
        tracer = SimulationTracer()
        parent = random.Random(99)
        res = Simulation(
            survivors, lambda v: _Gossip(), seed=parent, tracer=tracer
        ).run()
        doc = {
            "results": sorted(res.results.items()),
            "next_draw": parent.random(),
            "trace": tracer.to_dict(),
        }
        assert (res.rounds, res.messages_sent, output_digest(doc)) == (
            self.PINNED[(kind, seed)]
        )

    def test_distributed_ft_paths_identical(self, output_digest):
        pinned = {
            0: (10, 1092, [22, 29, 30, 29, 32], "056a022cf678c4f3"),
            1: (10, 924, [22, 27, 30, 30, 37], "c543d6ccb19113ed"),
            5: (10, 1316, [30, 30, 38, 26, 26], "63bc6ad85f8ce3d0"),
        }
        for seed, expected in pinned.items():
            g = connected_gnp_graph(56, 0.12, seed=seed)
            a = distributed_ft_spanner(g, 2, 2, iterations=5, seed=seed)
            edges = sorted((min(u, v), max(u, v), w)
                           for u, v, w in a.spanner.edges())
            assert (a.total_rounds, a.total_messages, a.survivor_sizes,
                    output_digest(edges)) == expected


# ---------------------------------------------------------------------------
# Verifier vocabulary
# ---------------------------------------------------------------------------


class TestVerifierScenarios:
    def _instance(self):
        g = connected_gnp_graph(14, 0.5, seed=2)
        rep = fault_tolerant_spanner(g, 3, 1, seed=2)
        return g, rep.spanner

    def test_scenarios_accepted(self):
        g, h = self._instance()
        v = next(iter(g.vertices()))
        assert is_fault_tolerant_spanner(
            h, g, 3, 1, scenarios=[FaultScenario.none(),
                                   FaultScenario.vertex([v])]
        )
        u, w, _ = next(iter(g.edges()))
        assert is_fault_tolerant_spanner(
            g, g, 3, 1, scenarios=[FaultScenario.edge([(u, w)])], kind="edge"
        )

    def test_scenarios_do_not_warn(self):
        import warnings

        g, h = self._instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert is_fault_tolerant_spanner(h, g, 3, 1, scenarios=[()])
            assert is_fault_tolerant_spanner(
                g, g, 3, 1, scenarios=[()], kind="edge"
            )


# ---------------------------------------------------------------------------
# Session integration
# ---------------------------------------------------------------------------


class TestSessionScenario:
    def test_replay_matches_build(self):
        g = connected_gnp_graph(36, 0.2, seed=4)
        session = Session()
        spec = SpannerSpec("theorem21", stretch=3,
                           faults=FaultModel.vertex(2), seed=17)
        scs = [session.scenario(spec, graph=g, iteration=i) for i in range(4)]
        ref = fault_tolerant_spanner(g, 3, 2, iterations=4, seed=17)
        rep = fault_tolerant_spanner(g, 3, 2, scenarios=scs)
        assert edge_set(rep.spanner) == edge_set(ref.spanner)
        assert rep.stats.survivor_sizes == ref.stats.survivor_sizes
        assert scs[2].seed == 17 and scs[2].iteration == 2

    def test_edge_kind_and_errors(self):
        g = connected_gnp_graph(20, 0.3, seed=4)
        session = Session()
        espec = SpannerSpec("theorem21", stretch=3,
                            faults=FaultModel.edge(2), seed=23)
        scs = [session.scenario(espec, graph=g, iteration=i) for i in range(3)]
        ref = fault_tolerant_spanner(g, 3, 2, iterations=3, seed=23, kind="edge")
        rep = fault_tolerant_spanner(g, 3, 2, scenarios=scs, kind="edge")
        assert edge_set(rep.spanner) == edge_set(ref.spanner)
        none_spec = SpannerSpec("greedy", stretch=3, seed=1)
        assert session.scenario(none_spec, graph=g).is_null
        with pytest.raises(InvalidSpec):
            session.scenario(espec.replace(seed=None), graph=g)
        with pytest.raises(InvalidSpec):
            session.scenario(espec, graph=g, iteration=-1)

    @pytest.mark.parametrize(
        "faults,params",
        [
            (FaultModel.edge(2), {"iterations": 4}),
            (FaultModel.vertex(2), {"until_valid": {"trials": 5, "batch": 2}}),
            (FaultModel.edge(1), {"until_valid": {"trials": 5, "batch": 2}}),
        ],
        ids=["edge", "vertex-until-valid", "edge-until-valid"],
    )
    def test_scenario_names_the_survivors_the_build_drew(self, faults, params):
        """Every variant of the one theorem21 row samples with the spec's
        ``survival_prob``, so ``Session.scenario`` replays its draws."""
        g = connected_gnp_graph(30, 0.3, seed=4)
        session = Session()
        spec = SpannerSpec("theorem21", stretch=3, faults=faults, seed=5,
                           params={**params, "survival_prob": 0.3})
        sizes = session.build(spec, graph=g).stats["survivor_sizes"]
        units = g.num_edges if faults.kind == "edge" else g.num_vertices
        assert sizes
        for i, built in enumerate(sizes):
            sc = session.scenario(spec, graph=g, iteration=i)
            assert units - len(sc.edges or sc.vertices) == built

    def test_theorem21_edge_primes_host_snapshot(self):
        """Regression: the edge conversion reads the host CSR snapshot, so
        the session must warm it through its cache (csr_path=True)."""
        g = connected_gnp_graph(64, 0.15, seed=9)
        session = Session()
        spec = SpannerSpec("theorem21", stretch=3,
                           faults=FaultModel.edge(1), seed=13)
        report = session.build(spec, graph=g)
        # the session primed the snapshot (a build or a cache hit, depending
        # on whether the host generator already warmed it)
        assert session.snapshot_builds + session.snapshot_hits == 1
        # the engine rides the compiled kernel when the C backend serves
        assert report.resolved_method == (
            "compiled" if compiled_available() else "csr"
        )
        report2 = session.build(spec, graph=g)
        assert session.snapshot_builds + session.snapshot_hits == 2
        assert edge_set(report2.spanner) == edge_set(report.spanner)


# ---------------------------------------------------------------------------
# Hash-seed determinism of the scenario pipelines
# ---------------------------------------------------------------------------


_SCENARIO_SCRIPT = """
import json, sys
from repro.core.conversion import fault_tolerant_spanner
from repro.graph import connected_gnp_graph

method = sys.argv[1]
g = connected_gnp_graph(30, 0.2, seed=6)
relabeled = type(g)()
for u, v, w in g.edges():
    relabeled.add_edge(f"node-{u}", f"node-{v}", w)
vres = fault_tolerant_spanner(relabeled, 3, 2, iterations=4, seed=9,
                              method=method)
eres = fault_tolerant_spanner(relabeled, 3, 2, iterations=4, seed=9,
                              method=method, kind="edge")
print(json.dumps({
    "vertex": sorted((u, v) for u, v, _w in vres.spanner.edges()),
    "vertex_sizes": vres.stats.survivor_sizes,
    "edge": sorted((u, v) for u, v, _w in eres.spanner.edges()),
    "edge_sizes": eres.stats.survivor_sizes,
}))
"""


class TestHashSeedDeterminism:
    """String labels expose any hidden set-iteration order in the masked
    pipelines: per seed there must be exactly one output across
    hash-randomized interpreters, on both execution paths."""

    @pytest.mark.parametrize("method", ["csr", "dict"])
    def test_conversions_stable_across_hash_seeds(self, method):
        outputs = set()
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", _SCENARIO_SCRIPT, method],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, "conversion output varies with PYTHONHASHSEED"
