"""Client–server generalization of the r-FT 2-spanner machinery."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LPError
from repro.graph import complete_digraph, gnp_random_digraph, knapsack_gap_gadget
from repro.two_spanner import (
    approximate_client_server_2spanner,
    approximate_ft2_spanner,
    build_client_server_lp,
    client_edge_satisfied,
    is_client_server_ft2_spanner,
    solve_client_server_lp,
    solve_ft2_lp,
)


def _some_clients(graph, fraction, seed):
    edges = [(u, v) for u, v, _w in graph.edges()]
    rng = random.Random(seed)
    count = max(1, int(len(edges) * fraction))
    return rng.sample(edges, count)


class TestModel:
    def test_rejects_foreign_client_edge(self):
        g = complete_digraph(3)
        with pytest.raises(LPError):
            build_client_server_lp(g, [(0, 99)], 1)

    def test_rejects_negative_r(self):
        g = complete_digraph(3)
        with pytest.raises(LPError):
            build_client_server_lp(g, [(0, 1)], -1)

    def test_all_clients_equals_plain_lp(self):
        g = gnp_random_digraph(8, 0.6, seed=1)
        clients = [(u, v) for u, v, _w in g.edges()]
        _model, solution = solve_client_server_lp(g, clients, 1)
        plain = solve_ft2_lp(g, 1)
        assert solution.objective == pytest.approx(plain.objective, rel=1e-6)

    def test_fewer_clients_cost_no_more(self):
        g = gnp_random_digraph(9, 0.5, seed=2)
        all_edges = [(u, v) for u, v, _w in g.edges()]
        _m1, full = solve_client_server_lp(g, all_edges, 1)
        _m2, half = solve_client_server_lp(g, all_edges[: len(all_edges) // 2], 1)
        assert half.objective <= full.objective + 1e-6

    def test_empty_client_set_is_free(self):
        g = complete_digraph(4)
        _model, solution = solve_client_server_lp(g, [], 2)
        assert solution.objective == pytest.approx(0.0)


class TestRoundingPipeline:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), r=st.integers(0, 2))
    def test_property_valid_for_clients(self, seed, r):
        g = gnp_random_digraph(9, 0.55, seed=seed)
        if g.num_edges == 0:
            return
        clients = _some_clients(g, 0.4, seed + 1)
        result = approximate_client_server_2spanner(g, clients, r, seed=seed + 2)
        assert is_client_server_ft2_spanner(result.spanner, g, clients, r)
        assert result.cost >= result.lp_objective - 1e-6

    def test_clients_may_be_an_iterator(self):
        """The client edges are read once: an iterator gives the LP the
        same cover rows, and the result, that a list does."""
        g = gnp_random_digraph(12, 0.5, seed=3)
        clients = [(u, v) for u, v, _w in g.edges()][:20]
        by_list = approximate_client_server_2spanner(g, clients, 1, seed=1)
        by_iter = approximate_client_server_2spanner(g, iter(clients), 1, seed=1)
        assert by_iter.lp_objective == by_list.lp_objective > 0
        assert (by_iter.attempts, by_iter.repaired_edges) == (1, [])
        assert sorted(by_iter.spanner.edges()) == sorted(by_list.spanner.edges())

    def test_matches_full_problem_when_all_clients(self):
        g = gnp_random_digraph(9, 0.5, seed=5)
        clients = [(u, v) for u, v, _w in g.edges()]
        cs = approximate_client_server_2spanner(g, clients, 1, seed=6)
        from repro.core import is_ft_2spanner

        assert is_ft_2spanner(cs.spanner, g, 1)

    def test_gadget_client_only_direct_edge(self):
        """If only the expensive edge is a client, the solver may satisfy
        it through the cheap server paths instead of buying it."""
        r = 1
        g = knapsack_gap_gadget(2, 100.0)  # 2 midpoints, r+1 = 2 needed
        result = approximate_client_server_2spanner(g, [("u", "v")], r, seed=7)
        assert is_client_server_ft2_spanner(result.spanner, g, [("u", "v")], r)
        # optimum: 4 unit arcs instead of the 100-cost edge
        assert result.cost <= 4.0 + 1e-9
        assert not result.spanner.has_edge("u", "v")

    def test_client_edge_satisfied_helper(self):
        g = complete_digraph(4)
        h = g.copy()
        h.remove_edge(0, 1)
        assert client_edge_satisfied(h, g, 0, 1, r=1)  # 2 midpoints
        assert not client_edge_satisfied(h, g, 0, 1, r=2)
