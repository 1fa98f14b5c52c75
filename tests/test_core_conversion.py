"""Theorem 2.1 conversion: validity, size accounting, schedules."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    fault_tolerant_spanner,
    fault_tolerant_spanner_until_valid,
    is_fault_tolerant_spanner,
    resolve_iterations,
    sampled_fault_check,
    survival_probability,
)
from repro.errors import FaultToleranceError, InvalidStretch
from repro.graph import (
    complete_graph,
    connected_gnp_graph,
    gnp_random_digraph,
    gnp_random_graph,
    is_subgraph,
)
from repro.spanners import greedy_spanner, thorup_zwick_spanner


class TestParameters:
    def test_survival_probability(self):
        assert survival_probability(1) == 0.5
        assert survival_probability(2) == 0.5
        assert survival_probability(4) == 0.25

    def test_resolve_iterations_explicit_overrides(self):
        assert resolve_iterations(100, 3, 17, "theorem", 4.0) == 17

    def test_resolve_iterations_rejects_bad(self):
        with pytest.raises(FaultToleranceError):
            resolve_iterations(100, 3, 0, "theorem", 1.0)
        with pytest.raises(FaultToleranceError):
            resolve_iterations(100, 3, None, "nope", 1.0)

    def test_schedule_magnitudes(self):
        theorem = resolve_iterations(100, 3, None, "theorem", 1.0)
        light = resolve_iterations(100, 3, None, "light", 1.0)
        assert theorem == math.ceil(27 * math.log(100))
        assert light == math.ceil(9 * math.log(100))

    def test_invalid_stretch_and_r(self):
        g = complete_graph(4)
        with pytest.raises(InvalidStretch):
            fault_tolerant_spanner(g, 0.5, 1)
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner(g, 3, -1)

    @pytest.mark.parametrize("method", ["dict", "auto"])
    def test_nan_stretch_is_rejected(self, method):
        """NaN fails ``k < 1`` too; it must not build the whole host."""
        g = gnp_random_graph(30, 0.3, seed=1, weight_range=(1.0, 5.0))
        for r in (0, 1):
            with pytest.raises(InvalidStretch):
                fault_tolerant_spanner(g, math.nan, r, method=method)
            with pytest.raises(InvalidStretch):
                fault_tolerant_spanner(g, math.nan, r, method=method, kind="edge")


class TestConversionOutput:
    def test_r0_equals_single_base_run(self):
        g = connected_gnp_graph(20, 0.3, seed=1)
        result = fault_tolerant_spanner(g, 3, 0, seed=2)
        assert result.stats.iterations == 1
        assert is_subgraph(result.spanner, g)
        base = greedy_spanner(g, 3)
        assert result.num_edges == base.num_edges

    def test_output_is_subgraph_spanning_all_vertices(self):
        g = connected_gnp_graph(16, 0.4, seed=3)
        result = fault_tolerant_spanner(g, 3, 2, seed=4)
        assert is_subgraph(result.spanner, g)
        assert result.spanner.vertex_set() == g.vertex_set()

    def test_stats_accounting(self):
        g = connected_gnp_graph(16, 0.4, seed=5)
        result = fault_tolerant_spanner(g, 3, 2, iterations=10, seed=6)
        s = result.stats
        assert s.iterations == 10
        assert len(s.survivor_sizes) == 10
        assert len(s.union_edge_counts) == 10
        assert s.final_size == result.num_edges
        # union sizes are nondecreasing
        assert all(a <= b for a, b in zip(s.union_edge_counts, s.union_edge_counts[1:]))
        assert s.max_survivor_size <= g.num_vertices

    def test_validity_r1_exhaustive(self):
        g = connected_gnp_graph(13, 0.45, seed=7)
        result = fault_tolerant_spanner(g, 3, 1, seed=8)
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 1)

    def test_validity_r2_exhaustive(self):
        g = connected_gnp_graph(12, 0.5, seed=9)
        result = fault_tolerant_spanner(g, 3, 2, seed=10)
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 2)

    def test_works_with_other_base_algorithms(self):
        g = connected_gnp_graph(12, 0.5, seed=11)
        result = fault_tolerant_spanner(
            g, 3, 1,
            base_algorithm=lambda h, k: thorup_zwick_spanner(h, (int(k) + 1) // 2, seed=0),
            seed=12,
        )
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 1)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_r1_validity(self, seed):
        g = gnp_random_graph(11, 0.5, seed=seed)
        result = fault_tolerant_spanner(g, 3, 1, seed=seed + 1)
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 1)

    def test_seed_determinism(self):
        g = connected_gnp_graph(14, 0.4, seed=20)
        a = fault_tolerant_spanner(g, 3, 2, seed=21)
        b = fault_tolerant_spanner(g, 3, 2, seed=21)
        assert sorted(map(tuple, a.spanner.edges())) == sorted(
            map(tuple, b.spanner.edges())
        )


class TestAdaptiveVariant:
    def test_until_valid_stops_early(self):
        g = connected_gnp_graph(12, 0.5, seed=30)
        result = fault_tolerant_spanner_until_valid(
            g, 3, 1,
            validity_check=lambda h: is_fault_tolerant_spanner(h, g, 3, 1),
            batch=4,
            seed=31,
        )
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 1)
        # the adaptive run should not need the full theorem schedule
        theorem = resolve_iterations(g.num_vertices, 1, None, "theorem", 16.0)
        assert result.stats.iterations <= theorem

    def test_until_valid_requires_r_ge_1(self):
        g = complete_graph(4)
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner_until_valid(
                g, 3, 0, validity_check=lambda h: True
            )

    def test_until_valid_raises_on_impossible_check(self):
        g = complete_graph(4)
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner_until_valid(
                g, 3, 1, validity_check=lambda h: False,
                batch=2, max_iterations=6,
            )

    def test_until_valid_rejects_stretch_below_one(self):
        g = complete_graph(4)
        with pytest.raises(InvalidStretch):
            fault_tolerant_spanner_until_valid(
                g, 0.5, 1, validity_check=lambda h: True
            )

    @pytest.mark.parametrize("batch", [0, -3])
    def test_until_valid_rejects_empty_batches(self, batch):
        """A batch that runs no iteration would check the same union forever."""
        g = complete_graph(4)
        calls = []

        def never_valid(_union):
            calls.append(1)
            if len(calls) > 50:  # a loop that never advances must not hang
                raise RuntimeError("the adaptive loop did not advance")
            return False

        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner_until_valid(
                g, 3, 1, validity_check=never_valid, batch=batch,
                max_iterations=10,
            )
        assert not calls


def _pinned_hosts():
    return [
        gnp_random_graph(40, 0.2, seed=1, weight_range=(1.0, 10.0)),
        gnp_random_digraph(30, 0.2, seed=1),
    ]


def _pinned_payload(result, directed):
    edges = sorted(
        (u, v, w) if directed else (min(u, v), max(u, v), w)
        for u, v, w in result.spanner.edges()
    )
    stats = result.stats
    return {
        "edges": edges,
        "iterations": stats.iterations,
        "survivor_sizes": stats.survivor_sizes,
        "iteration_edge_counts": stats.iteration_edge_counts,
        "union_edge_counts": stats.union_edge_counts,
    }


def _pinned_run(driver, g, r, seed, method):
    if driver == "vertex":
        return fault_tolerant_spanner(
            g, 3, r, schedule="light", constant=2.0, seed=seed, method=method
        )
    if driver == "edge":
        return fault_tolerant_spanner(
            g, 3, r, constant=2.0, seed=seed, method=method, kind="edge"
        )
    return fault_tolerant_spanner_until_valid(
        g, 3, r,
        lambda h: sampled_fault_check(h, g, 3, r, trials=8, seed=seed),
        batch=4, max_iterations=400, seed=seed, method=method,
    )


class TestPinnedOutputs:
    """Seeded outputs of the three drivers, pinned to recorded digests.

    Each digest covers the union's edge set and every ``ConversionStats``
    field, over r in {0, 1, 2} (adaptive: {1, 2}) and seeds 0 and 1, on
    a weighted G(40, 0.2) and a G(30, 0.2) digraph. One digest serves
    every method: the dict reference and the engine tiers agree exactly.
    """

    EXPECTED = {
        ("vertex", False): "c1922d991ebfd5f9",
        ("vertex", True): "c3c58bf0a8137195",
        ("edge", False): "dff224ce65cdba20",
        ("edge", True): "17ce8c67e7727d38",
        ("adaptive", False): "3b643e29eae3e94f",
        ("adaptive", True): "4308dd990c2a39ff",
    }

    @pytest.mark.parametrize("method", ["dict", "csr", "auto"])
    @pytest.mark.parametrize("driver", ["vertex", "edge", "adaptive"])
    def test_outputs_match_recorded_digests(self, driver, method, output_digest):
        radii = (1, 2) if driver == "adaptive" else (0, 1, 2)
        for g in _pinned_hosts():
            payloads = [
                _pinned_payload(_pinned_run(driver, g, r, seed, method), g.directed)
                for seed in (0, 1)
                for r in radii
            ]
            assert output_digest(payloads) == self.EXPECTED[(driver, g.directed)]

    #: ``edges()`` order is output too: ``--out`` files and
    #: ``--include-spanner`` sweeps serialize it. The full-run drivers
    #: list the union in edge-id order; the adaptive driver in the order
    #: each iteration picked its new edges. The dict reference builds its
    #: union in another order, so only the engine tiers are pinned.
    EXPECTED_ORDER = {
        ("vertex", False): "0d4d5f7ae8146e36",
        ("vertex", True): "e9b65609c5557792",
        ("edge", False): "e1c9a15207f55c91",
        ("edge", True): "25115e3b0dc67bba",
        ("adaptive", False): "33064da612c2edec",
        ("adaptive", True): "00f8616c8eb39893",
    }

    @pytest.mark.parametrize("method", ["csr", "auto"])
    @pytest.mark.parametrize("driver", ["vertex", "edge", "adaptive"])
    def test_edge_order_matches_recorded_digests(
        self, driver, method, output_digest
    ):
        radii = (1, 2) if driver == "adaptive" else (0, 1, 2)
        for g in _pinned_hosts():
            orders = [
                list(_pinned_run(driver, g, r, seed, method).spanner.edges())
                for seed in (0, 1)
                for r in radii
            ]
            assert output_digest(orders) == self.EXPECTED_ORDER[(driver, g.directed)]
