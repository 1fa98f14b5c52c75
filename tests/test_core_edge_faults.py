"""Edge-fault-tolerant spanners: conversion, verifiers, and the k=2 lemma.

Edge faults share the vertex-fault code: the conversion and the verifiers
take ``kind="edge"``, fault sets are ``fault_sets`` over the edge list,
and the k = 2 verdict is ``is_ft_2spanner``'s.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    edge_satisfied,
    fault_sets,
    fault_tolerant_spanner,
    is_fault_tolerant_spanner,
    is_ft_2spanner,
    resolve_iterations,
    sampled_fault_check,
)
from repro.errors import FaultToleranceError, InvalidStretch
from repro.graph import (
    complete_digraph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_digraph,
    is_subgraph,
)
from repro.spanners import greedy_spanner


class TestEdgeFaultEnumeration:
    def test_enumerates_all_sizes(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        sets = list(fault_sets(edges, 2))
        assert len(sets) == 1 + 3 + 3
        assert () in sets

    def test_respects_edge_count_cap(self):
        edges = [(0, 1)]
        sets = list(fault_sets(edges, 5))
        assert len(sets) == 2


class TestEdgeFaultVerifiers:
    def test_whole_graph_tolerates_edge_faults(self):
        g = complete_graph(5)
        assert is_fault_tolerant_spanner(g, g, k=3, r=2, kind="edge")

    def test_cycle_subgraph_fails(self):
        g = cycle_graph(5)
        h = g.copy()
        h.remove_edge(0, 1)
        # Faulting another cycle edge disconnects h - F while g - F is a path.
        assert not is_fault_tolerant_spanner(h, g, k=10, r=1, kind="edge")

    def test_sampled_check_consistency(self):
        g = complete_graph(6)
        assert sampled_fault_check(g, g, k=1, r=2, trials=30, seed=0, kind="edge")

    def test_sampled_check_finds_violation(self):
        g = cycle_graph(6)
        h = g.copy()
        h.remove_edge(0, 1)
        assert not sampled_fault_check(
            h, g, k=50, r=1, trials=300, seed=1, kind="edge"
        )

    def test_negative_r(self):
        g = complete_graph(3)
        with pytest.raises(FaultToleranceError):
            is_fault_tolerant_spanner(g, g, 1, -1, kind="edge")
        with pytest.raises(FaultToleranceError):
            is_ft_2spanner(g, g, -1)

    def test_unknown_kind_is_refused(self):
        g = complete_graph(3)
        with pytest.raises(FaultToleranceError, match="'vertex' or 'edge'"):
            is_fault_tolerant_spanner(g, g, 1, 1, kind="edges")
        with pytest.raises(FaultToleranceError, match="'vertex' or 'edge'"):
            sampled_fault_check(g, g, 1, 1, trials=3, kind="none")


class TestEdgeFaultConversion:
    def test_r0_is_base_run(self):
        g = connected_gnp_graph(15, 0.4, seed=1)
        result = fault_tolerant_spanner(g, 3, 0, seed=2, kind="edge")
        assert result.num_edges == greedy_spanner(g, 3).num_edges

    def test_output_subgraph_and_valid_r1(self):
        g = connected_gnp_graph(10, 0.55, seed=3)
        result = fault_tolerant_spanner(g, 3, 1, seed=4, kind="edge")
        assert is_subgraph(result.spanner, g)
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 1, kind="edge")

    def test_parameter_validation(self):
        g = complete_graph(4)
        with pytest.raises(InvalidStretch):
            fault_tolerant_spanner(g, 0.2, 1, kind="edge")
        with pytest.raises(FaultToleranceError):
            fault_tolerant_spanner(g, 3, -1, kind="edge")
        with pytest.raises(FaultToleranceError, match="'vertex' or 'edge'"):
            fault_tolerant_spanner(g, 3, 1, kind="none")

    def test_default_schedule_depends_on_the_kind(self):
        """``schedule=None`` is "light" for edge faults, "theorem" for vertex."""
        g = connected_gnp_graph(15, 0.4, seed=1)
        n = g.num_vertices
        edge = fault_tolerant_spanner(g, 3, 2, constant=1.0, seed=2, kind="edge")
        vertex = fault_tolerant_spanner(g, 3, 2, constant=1.0, seed=2)
        assert edge.stats.iterations == resolve_iterations(n, 2, None, "light", 1.0)
        assert vertex.stats.iterations == resolve_iterations(
            n, 2, None, "theorem", 1.0
        )
        assert edge.stats.iterations < vertex.stats.iterations

    def test_stats_track_surviving_edges(self):
        g = complete_graph(8)
        result = fault_tolerant_spanner(
            g, 3, 2, iterations=5, seed=5, kind="edge"
        )
        assert len(result.stats.survivor_sizes) == 5
        assert all(0 <= s <= g.num_edges for s in result.stats.survivor_sizes)

    def test_vertex_ft_implies_edge_ft_for_2spanner(self):
        """A vertex-FT 2-spanner certificate is also an edge-FT one (the
        per-edge conditions coincide)."""
        g = complete_digraph(6)
        result = fault_tolerant_spanner(g, 2, 1, iterations=40, seed=6)
        if is_ft_2spanner(result.spanner, g, 1):
            assert is_fault_tolerant_spanner(result.spanner, g, 2, 1, kind="edge")


class TestEdgeFaultLemma31Analogue:
    def test_kept_edge_suffices(self):
        g = complete_digraph(3)
        h = g.copy()
        assert edge_satisfied(h, 0, 1, r=5)

    def test_midpoint_counting(self):
        g = complete_digraph(5)
        h = g.copy()
        h.remove_edge(0, 1)
        assert edge_satisfied(h, 0, 1, r=2)  # 3 midpoints
        assert not edge_satisfied(h, 0, 1, r=3)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), r=st.integers(0, 2))
    def test_lemma_equals_exhaustive_edge_faults(self, seed, r):
        """The k=2 edge-fault condition ≡ the exhaustive definition.

        This is the equivalence ``is_ft_2spanner``'s docstring proves,
        checked by enumeration over every edge-fault set on random
        sub-digraphs.
        """
        import random

        g = gnp_random_digraph(6, 0.55, seed=seed)
        if g.num_edges > 14:  # keep C(m, 2) enumeration small
            edges = list(g.edges())[:14]
            g = g.edge_subgraph([(u, v) for u, v, _w in edges])
        rng = random.Random(seed + 1)
        keep = [(u, v) for u, v, _w in g.edges() if rng.random() < 0.7]
        h = g.edge_subgraph(keep)
        lemma = is_ft_2spanner(h, g, r)
        exhaustive = is_fault_tolerant_spanner(h, g, 2, r, kind="edge")
        assert lemma == exhaustive
