"""Greedy (Althöfer et al.) spanner: correctness, girth, and size bound."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidStretch
from repro.graph import (
    complete_graph,
    connected_gnp_graph,
    girth,
    gnp_random_graph,
    is_subgraph,
    path_graph,
)
from repro.spanners import (
    greedy_size_bound,
    greedy_spanner,
    greedy_spanner_size_first,
    is_spanner,
    max_edge_stretch,
)


class TestGreedyCorrectness:
    def test_rejects_bad_stretch(self):
        with pytest.raises(InvalidStretch):
            greedy_spanner(path_graph(3), 0.5)

    @pytest.mark.parametrize("method", ["dict", "csr", "auto"])
    def test_rejects_nan_stretch(self, method):
        """NaN fails ``k < 1`` too; it must not keep every host edge."""
        with pytest.raises(InvalidStretch):
            greedy_spanner(path_graph(3), math.nan, method=method)
        with pytest.raises(InvalidStretch):
            greedy_spanner_size_first(path_graph(3), math.nan, 2, method=method)

    def test_k1_returns_whole_graph(self):
        g = complete_graph(5)
        h = greedy_spanner(g, 1)
        assert h.num_edges == g.num_edges

    def test_is_subgraph_and_spanner(self, random_connected):
        for k in (2, 3, 5):
            h = greedy_spanner(random_connected, k)
            assert is_subgraph(h, random_connected)
            assert is_spanner(h, random_connected, k)

    def test_tree_input_unchanged(self):
        g = path_graph(8)
        h = greedy_spanner(g, 3)
        assert h.num_edges == g.num_edges

    def test_spans_all_vertices(self):
        g = complete_graph(6)
        h = greedy_spanner(g, 3)
        assert h.vertex_set() == g.vertex_set()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.sampled_from([3, 5, 7]))
    def test_property_valid_spanner_weighted(self, seed, k):
        g = gnp_random_graph(16, 0.5, seed=seed, weight_range=(0.5, 3.0))
        h = greedy_spanner(g, k)
        assert is_spanner(h, g, k)
        assert max_edge_stretch(h, g) <= k + 1e-9


class TestGreedyGirthAndSize:
    def test_girth_exceeds_k_plus_one(self):
        # Classical guarantee: greedy k-spanner (unit weights) has girth > k+1.
        g = connected_gnp_graph(30, 0.4, seed=2)
        for k in (2, 3):
            h = greedy_spanner(g, k)
            assert girth(h) > k + 1

    def test_size_bound_complete_graph(self):
        # K_n, k=3: greedy output has girth > 4, so size <= n^{3/2}-ish.
        n = 40
        h = greedy_spanner(complete_graph(n), 3)
        assert h.num_edges <= 2 * greedy_size_bound(n, 3)

    def test_sparser_for_larger_k(self):
        g = connected_gnp_graph(40, 0.5, seed=8)
        sizes = [greedy_spanner(g, k).num_edges for k in (1, 3, 5)]
        assert sizes[0] >= sizes[1] >= sizes[2]


class TestGreedySizeFirst:
    def test_truncation_respects_budget(self):
        g = complete_graph(12)
        h = greedy_spanner_size_first(g, 3, max_edges=5)
        assert h.num_edges <= 5

    def test_large_budget_equals_plain_greedy(self):
        g = connected_gnp_graph(15, 0.4, seed=4)
        a = greedy_spanner(g, 3)
        b = greedy_spanner_size_first(g, 3, max_edges=g.num_edges)
        assert sorted(map(tuple, a.edges())) == sorted(map(tuple, b.edges()))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            greedy_spanner_size_first(path_graph(3), 3, max_edges=-1)
