"""Distributed Baswana–Sen and the Theorem 2.3 conversion."""

from __future__ import annotations

import pytest

from repro.core import is_fault_tolerant_spanner, sampled_fault_check
from repro.distributed import (
    distributed_baswana_sen,
    distributed_ft_spanner,
    shared_coin,
)
from repro.errors import DistributedError
from repro.graph import (
    Graph,
    complete_graph,
    connected_gnp_graph,
    gnp_random_graph,
    is_subgraph,
)
from repro.spanners import baswana_sen_size_bound, is_spanner


class TestSharedCoin:
    def test_deterministic(self):
        assert shared_coin("c", 1, 42, 0.5) == shared_coin("c", 1, 42, 0.5)

    def test_extremes(self):
        assert not shared_coin("c", 1, 42, 0.0)
        assert shared_coin("c", 1, 42, 1.0 - 1e-12) or True  # p<1 not forced
        # p=1 boundary: value < 1 always
        assert shared_coin("c", 1, 42, 1.0)

    def test_varies_with_phase_and_salt(self):
        draws = {shared_coin("c", phase, 42, 0.5) for phase in range(12)}
        assert draws == {True, False}


class TestDistributedBaswanaSen:
    def test_rounds_are_k_plus_one_ish(self):
        g = connected_gnp_graph(30, 0.3, seed=1)
        for k in (2, 3):
            _sp, sim = distributed_baswana_sen(g, k, seed=2)
            assert sim.rounds == k

    def test_valid_spanner_multiple_seeds(self):
        g = connected_gnp_graph(28, 0.3, seed=3)
        for seed in range(4):
            sp, _sim = distributed_baswana_sen(g, 2, seed=seed)
            assert is_subgraph(sp, g)
            assert is_spanner(sp, g, 3)

    def test_valid_5_spanner(self):
        g = connected_gnp_graph(30, 0.4, seed=5)
        sp, _sim = distributed_baswana_sen(g, 3, seed=6)
        assert is_spanner(sp, g, 5)

    def test_weighted_graphs(self):
        g = gnp_random_graph(24, 0.4, seed=7, weight_range=(0.5, 3.0))
        sp, _sim = distributed_baswana_sen(g, 2, seed=8)
        assert is_spanner(sp, g, 3)

    def test_size_comparable_to_centralized_bound(self):
        g = complete_graph(36)
        sp, _sim = distributed_baswana_sen(g, 2, seed=9)
        assert sp.num_edges <= 8 * baswana_sen_size_bound(36, 2)

    def test_k1_returns_graph(self):
        g = complete_graph(5)
        sp, sim = distributed_baswana_sen(g, 1, seed=1)
        assert sp.num_edges == g.num_edges
        assert sim.rounds == 0

    def test_rejects_directed(self, small_digraph):
        with pytest.raises(DistributedError):
            distributed_baswana_sen(small_digraph, 2)

    def test_empty_graph(self):
        sp, sim = distributed_baswana_sen(Graph(), 2)
        assert sp.num_vertices == 0


class TestDistributedFTConversion:
    def test_valid_ft_spanner_r1(self):
        g = connected_gnp_graph(12, 0.5, seed=10)
        result = distributed_ft_spanner(g, 2, r=1, seed=11)
        assert is_fault_tolerant_spanner(result.spanner, g, 3, 1)
        assert result.total_rounds >= result.iterations  # >= 1 round each

    def test_round_accounting_scales_with_iterations(self):
        g = connected_gnp_graph(12, 0.5, seed=12)
        a = distributed_ft_spanner(g, 2, r=1, iterations=5, seed=13)
        b = distributed_ft_spanner(g, 2, r=1, iterations=10, seed=13)
        assert a.iterations == 5 and b.iterations == 10
        assert b.total_rounds > a.total_rounds

    def test_r0_single_run(self):
        g = connected_gnp_graph(14, 0.4, seed=14)
        result = distributed_ft_spanner(g, 2, r=0, seed=15)
        assert result.iterations == 1
        assert is_spanner(result.spanner, g, 3)

    def test_larger_r_sampled_check(self):
        g = connected_gnp_graph(16, 0.45, seed=16)
        result = distributed_ft_spanner(g, 2, r=2, schedule="theorem", seed=17)
        assert sampled_fault_check(result.spanner, g, 3, 2, trials=60, seed=18)

    def test_rejects_bad_r(self):
        g = complete_graph(4)
        with pytest.raises(DistributedError):
            distributed_ft_spanner(g, 2, r=-1)


class TestSimulatorMethodDispatch:
    """The LOCAL consumers reproduce their recorded seeded outputs.

    The pins were recorded while an array round engine still ran beside
    the dict loop and matched it exactly, so they hold the one loop to
    what either path produced.
    """

    @staticmethod
    def _edges(graph):
        return sorted((min(u, v), max(u, v), w) for u, v, w in graph.edges())

    def test_baswana_sen_engine_identical(self, output_digest):
        g = connected_gnp_graph(60, 0.12, seed=20)
        pinned = {
            2: (2, 960, "2d5e2267a5ca23f1"),
            3: (3, 1440, "b281936c2ea0ee3d"),
        }
        for k, expected in pinned.items():
            sp, sim = distributed_baswana_sen(g, k, seed=21)
            assert (
                sim.rounds, sim.messages_sent, output_digest(self._edges(sp))
            ) == expected

    def test_ft_conversion_engine_identical(self, output_digest):
        g = connected_gnp_graph(52, 0.15, seed=22)
        a = distributed_ft_spanner(g, 2, r=1, iterations=4, seed=23)
        assert (a.total_rounds, a.total_messages, a.survivor_sizes) == (
            8, 780, [34, 22, 24, 22]
        )
        assert output_digest(self._edges(a.spanner)) == "0434072d2948c855"

    def test_method_threads_through_session(self):
        """Every ``SpannerSpec.method`` builds the one path and says so."""
        from repro import FaultModel, Session, SpannerSpec

        g = connected_gnp_graph(50, 0.15, seed=24)
        session = Session()
        reports = {
            method: session.build(
                SpannerSpec(
                    "distributed-ft", stretch=3, faults=FaultModel.vertex(1),
                    seed=25, params={"iterations": 3}, method=method,
                ),
                graph=g,
            )
            for method in ("auto", "csr", "dict")
        }
        for report in reports.values():
            assert report.resolved_method == "dict"
            assert report.stats == reports["dict"].stats
            assert self._edges(report.spanner) == self._edges(
                reports["dict"].spanner
            )
