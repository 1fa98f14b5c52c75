"""Dict-vs-CSR equivalence for the clustering/decomposition algorithm stack.

PR 1 pinned the greedy spanner and the Theorem 2.1 conversion to their
dict references (`tests/test_graph_csr.py`); this file does the same for
the algorithms routed onto the kernels afterwards: Thorup–Zwick (spanner
and distance oracle), Baswana–Sen, the CLPR09 baseline and the Lemma 3.7
padded-decomposition sampler.

The contract is strict: for a fixed seed the fast path must produce the
*same* object — identical spanner edge sets, identical witness/bunch
dictionaries, identical cluster assignments — not merely an equally
valid one. A subprocess test also pins the constructions
against hash randomization: seeded runs must not depend on ``set``
iteration order (the PR 2 determinism fix).
"""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clpr_fault_tolerant_spanner
from repro.distributed import sample_padded_decomposition
from repro.graph import (
    Graph,
    connected_gnp_graph,
    gnp_random_graph,
    grid_graph,
)
from repro.graph.csr import METHODS, MIN_DISPATCH_VERTICES, resolve_method
from repro.spanners import (
    baswana_sen_spanner,
    build_distance_oracle,
    is_spanner,
    thorup_zwick_spanner,
)


def edge_set(graph):
    return sorted(map(tuple, graph.edges()))


def weighted(seed, n=55, p=0.18):
    return gnp_random_graph(n, p, seed=seed, weight_range=(0.5, 3.0))


def unit(seed, n=50, p=0.15):
    return connected_gnp_graph(n, p, seed=seed)


class TestResolveMethod:
    def test_dispatch_rule(self):
        assert resolve_method("auto", MIN_DISPATCH_VERTICES) == "csr"
        assert resolve_method("auto", MIN_DISPATCH_VERTICES - 1) == "dict"
        assert resolve_method("csr", 1) == "csr"
        assert resolve_method("dict", 10**6) == "dict"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_method("fast", 100)
        assert METHODS == ("auto", "csr", "dict", "compiled")


class TestThorupZwickEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 5000), t=st.sampled_from([1, 2, 3]))
    def test_weighted(self, seed, t):
        g = weighted(seed)
        a = thorup_zwick_spanner(g, t, seed=seed + 1, method="csr")
        b = thorup_zwick_spanner(g, t, seed=seed + 1, method="dict")
        assert edge_set(a) == edge_set(b)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), t=st.sampled_from([2, 3]))
    def test_unit_weights_tie_heavy(self, seed, t):
        # Unit weights exercise the zero-weight plateaus of the primed
        # search, i.e. the canonical plateau sweep.
        g = unit(seed)
        a = thorup_zwick_spanner(g, t, seed=seed + 1, method="csr")
        b = thorup_zwick_spanner(g, t, seed=seed + 1, method="dict")
        assert edge_set(a) == edge_set(b)
        assert is_spanner(a, g, 2 * t - 1)

    def test_disconnected_host(self):
        g = unit(1, n=30, p=0.2)
        h = unit(2, n=20, p=0.2)
        for v in h.vertices():
            g.add_vertex(("b", v))
        for u, v, w in h.edges():
            g.add_edge(("b", u), ("b", v), w)
        for t in (2, 3):
            a = thorup_zwick_spanner(g, t, seed=3, method="csr")
            b = thorup_zwick_spanner(g, t, seed=3, method="dict")
            assert sorted(map(repr, a.edges())) == sorted(map(repr, b.edges()))


class TestBaswanaSenEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.sampled_from([2, 3, 4]))
    def test_weighted(self, seed, k):
        g = weighted(seed)
        a = baswana_sen_spanner(g, k, seed=seed + 7, method="csr")
        b = baswana_sen_spanner(g, k, seed=seed + 7, method="dict")
        assert edge_set(a) == edge_set(b)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.sampled_from([2, 3]))
    def test_unit_weights(self, seed, k):
        g = unit(seed)
        a = baswana_sen_spanner(g, k, seed=seed + 7, method="csr")
        b = baswana_sen_spanner(g, k, seed=seed + 7, method="dict")
        assert edge_set(a) == edge_set(b)
        assert is_spanner(a, g, 2 * k - 1)

    def test_sample_probability_override(self):
        g = weighted(3)
        for sp in (0.05, 0.5):
            a = baswana_sen_spanner(g, 3, seed=11, sample_probability=sp, method="csr")
            b = baswana_sen_spanner(g, 3, seed=11, sample_probability=sp, method="dict")
            assert edge_set(a) == edge_set(b)

    def test_sparse_bucket_fallback_matches_dense(self, monkeypatch):
        # Force the O(m) compact-key grouping that replaces the dense
        # (vertex × cluster) buffer past the memory cap.
        import repro.spanners.baswana_sen as bs_mod

        g = weighted(4)
        dense = baswana_sen_spanner(g, 3, seed=11, method="csr")
        monkeypatch.setattr(bs_mod, "_DENSE_BUCKET_CAP", 1)
        sparse = baswana_sen_spanner(g, 3, seed=11, method="csr")
        assert edge_set(dense) == edge_set(sparse)


class TestDegenerateHosts:
    """Isolated trailing vertices and edgeless graphs (reduceat edge cases)."""

    def _with_trailing_isolated(self, seed):
        g = weighted(seed, n=55, p=0.18)
        g.add_vertex(("isolated", 1))
        g.add_vertex(("isolated", 2))
        return g

    def test_all_algorithms_survive_trailing_isolated_vertices(self):
        g = self._with_trailing_isolated(0)
        for method in ("csr", "dict"):
            tz = thorup_zwick_spanner(g, 2, seed=1, method=method)
            bs = baswana_sen_spanner(g, 2, seed=2, method=method)
            oracle = build_distance_oracle(g, 2, seed=3, method=method)
            assert tz.num_vertices == g.num_vertices
            assert bs.num_vertices == g.num_vertices
            assert oracle.bunch_size(("isolated", 1)) >= 1
        a = thorup_zwick_spanner(g, 2, seed=1, method="csr")
        b = thorup_zwick_spanner(g, 2, seed=1, method="dict")
        assert sorted(map(repr, a.edges())) == sorted(map(repr, b.edges()))
        a = baswana_sen_spanner(g, 2, seed=2, method="csr")
        b = baswana_sen_spanner(g, 2, seed=2, method="dict")
        assert sorted(map(repr, a.edges())) == sorted(map(repr, b.edges()))

    def test_edgeless_graph(self):
        """Edgeless and zero-vertex hosts: every builder agrees across tiers.

        ``scipy_kernels()`` has no empty-snapshot sentinel, so each csr
        path must skip an empty host before it reaches the kernels.
        """
        edgeless = Graph()
        edgeless.add_vertices(range(60))
        for g in (edgeless, Graph()):
            out = {}
            for method in ("csr", "dict"):
                tz = thorup_zwick_spanner(g, 2, seed=1, method=method)
                bs = baswana_sen_spanner(g, 2, seed=2, method=method)
                oracle = build_distance_oracle(g, 2, seed=3, method=method)
                clpr = clpr_fault_tolerant_spanner(g, 2, 1, seed=4, method=method)
                pd = sample_padded_decomposition(g, seed=5, method=method)
                assert tz.num_edges == bs.num_edges == clpr.num_edges == 0
                out[method] = (
                    tz.num_vertices, edge_set(tz),
                    bs.num_vertices, edge_set(bs),
                    oracle.witnesses, oracle.bunches,
                    clpr.spanner.num_vertices, edge_set(clpr.spanner),
                    clpr.fault_sets_processed,
                    pd.assignment, pd.radii,
                )
            assert out["csr"] == out["dict"]


class TestDistanceOracleEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), t=st.sampled_from([1, 2, 3]))
    def test_bunches_and_witnesses_identical(self, seed, t):
        g = weighted(seed)
        a = build_distance_oracle(g, t, seed=seed + 1, method="csr")
        b = build_distance_oracle(g, t, seed=seed + 1, method="dict")
        assert a.witnesses == b.witnesses
        assert a.bunches == b.bunches

    def test_unit_weights(self):
        g = unit(5)
        for t in (2, 3):
            a = build_distance_oracle(g, t, seed=9, method="csr")
            b = build_distance_oracle(g, t, seed=9, method="dict")
            assert a.witnesses == b.witnesses
            assert a.bunches == b.bunches


class TestCLPREquivalence:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 5000), shared=st.booleans())
    def test_r1_union_identical(self, seed, shared):
        g = unit(seed, n=40, p=0.2)
        a = clpr_fault_tolerant_spanner(
            g, 2, 1, seed=seed + 1, shared_randomness=shared, method="csr"
        )
        b = clpr_fault_tolerant_spanner(
            g, 2, 1, seed=seed + 1, shared_randomness=shared, method="dict"
        )
        assert edge_set(a.spanner) == edge_set(b.spanner)
        assert a.fault_sets_processed == b.fault_sets_processed

    def test_weighted_t3(self):
        g = weighted(2, n=48, p=0.25)
        a = clpr_fault_tolerant_spanner(g, 3, 1, seed=4, method="csr")
        b = clpr_fault_tolerant_spanner(g, 3, 1, seed=4, method="dict")
        assert edge_set(a.spanner) == edge_set(b.spanner)


class TestDecompositionEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_assignment_identical(self, seed):
        g = unit(seed, n=60, p=0.08)
        a = sample_padded_decomposition(g, seed=seed + 1, method="csr")
        b = sample_padded_decomposition(g, seed=seed + 1, method="dict")
        assert a.assignment == b.assignment
        assert a.radii == b.radii

    def test_grid(self):
        g = grid_graph(8, 8)
        a = sample_padded_decomposition(g, seed=3, method="csr")
        b = sample_padded_decomposition(g, seed=3, method="dict")
        assert a.assignment == b.assignment


_HASHSEED_SCRIPT = """
import json, sys
from repro.graph import Graph
from repro.spanners import baswana_sen_spanner, build_distance_oracle, thorup_zwick_spanner

# String vertices: set iteration order depends on PYTHONHASHSEED unless
# the implementation orders every draw and tie-break canonically.
g = Graph()
edges = json.loads(sys.argv[1])
for u, v, w in edges:
    g.add_edge(u, v, w)
tz = thorup_zwick_spanner(g, 2, seed=5, method=sys.argv[2])
bs = baswana_sen_spanner(g, 3, seed=6, method=sys.argv[2])
oracle = build_distance_oracle(g, 2, seed=7, method=sys.argv[2])
print(json.dumps({
    "tz": sorted(map(list, tz.edges())),
    "bs": sorted(map(list, bs.edges())),
    "oracle": sorted((repr(v), sorted(map(repr, b))) for v, b in oracle.bunches.items()),
}))
"""


class TestHashSeedDeterminism:
    """Seeded runs must be identical across hash-randomized processes.

    The seed implementation iterated ``Set[Vertex]`` when seeding
    multi-source heaps and sampling hierarchy levels, so string-labeled
    graphs produced different spanners under different ``PYTHONHASHSEED``
    values despite a fixed seed. Every draw and tie-break is now keyed by
    host vertex order.
    """

    @pytest.mark.parametrize("method", ["csr", "dict"])
    def test_reproducible_across_hash_seeds(self, method):
        import json
        import os

        base = connected_gnp_graph(40, 0.15, seed=12)
        edges = [[f"v{u}", f"v{v}", w] for u, v, w in base.edges()]
        payload = json.dumps(edges)
        outputs = set()
        for hashseed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT, payload, method],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
