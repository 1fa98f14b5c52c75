"""Fault-tolerance verifiers, including the Lemma 3.1 equivalence."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    count_fault_sets,
    count_two_paths,
    edge_satisfied,
    fault_sets,
    first_violating_fault_set,
    is_fault_tolerant_spanner,
    is_ft_2spanner,
    sampled_fault_check,
    unsatisfied_edges,
)
from repro.cli import main
from repro.core.verify import _spanner_holds_after_faults
from repro.errors import FaultToleranceError
from repro.graph import (
    DiGraph,
    complete_digraph,
    complete_graph,
    cycle_graph,
    dump_json,
    gnp_random_digraph,
    knapsack_gap_gadget,
    path_graph,
    star_graph,
)


class TestFaultSetEnumeration:
    def test_counts(self):
        assert count_fault_sets(5, 0) == 1
        assert count_fault_sets(5, 1) == 6
        assert count_fault_sets(5, 2) == 16
        assert count_fault_sets(3, 10) == 8  # capped at n

    def test_enumeration_matches_count(self):
        sets = list(fault_sets(list(range(5)), 2))
        assert len(sets) == count_fault_sets(5, 2)
        assert () in sets
        assert all(len(s) <= 2 for s in sets)


class TestExhaustiveVerifier:
    def test_whole_graph_is_ft(self):
        g = complete_graph(5)
        assert is_fault_tolerant_spanner(g, g, k=1, r=2)

    def test_cycle_is_not_1_fault_tolerant(self):
        # Removing one vertex of C_n leaves a path; a proper subgraph that
        # dropped an edge of the cycle can't span it.
        g = cycle_graph(5)
        h = g.copy()
        h.remove_edge(0, 1)
        assert not is_fault_tolerant_spanner(h, g, k=10, r=1)

    def test_negative_r_rejected(self):
        g = path_graph(3)
        with pytest.raises(FaultToleranceError):
            is_fault_tolerant_spanner(g, g, 1, -1)

    def test_witness_is_reported(self):
        g = complete_graph(4)
        h = g.edge_subgraph([(0, 1), (1, 2), (2, 3)])
        witness = first_violating_fault_set(h, g, k=2, r=1)
        assert witness is not None
        assert len(witness) <= 1

    def test_star_requires_hub(self):
        # In a star, faulting the hub disconnects everything, but then the
        # survivor host graph has no edges either, so any subgraph is fine.
        g = star_graph(4)
        assert is_fault_tolerant_spanner(g, g, k=1, r=1)

    def test_specific_fault_sets_only(self):
        g = complete_graph(4)
        h = g.edge_subgraph([(0, 1), (1, 2), (2, 3), (3, 0)])
        # h (a 4-cycle) is a 3-spanner of K4 with no faults...
        assert is_fault_tolerant_spanner(h, g, 3, 0)
        # ...but faulting a cycle vertex leaves a path with stretch 3 > 2? Use
        # explicit small fault sets to exercise the parameter.
        assert is_fault_tolerant_spanner(h, g, 3, 1, scenarios=[()])

    def test_sampled_check_consistent(self):
        g = complete_graph(6)
        assert sampled_fault_check(g, g, k=1, r=2, trials=20, seed=0)

    def test_sampled_check_finds_violation(self):
        g = cycle_graph(6)
        h = g.copy()
        h.remove_edge(0, 1)
        # With enough trials the empty/one-vertex fault sets expose it.
        assert not sampled_fault_check(h, g, k=20, r=1, trials=200, seed=1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_checks_reject_nonpositive_trials(self, trials, tmp_path,
                                                      capsys):
        # An edgeless spanner fails every fault set, so checking none of
        # them must not certify it.
        g = complete_graph(5)
        h = g.edge_subgraph([])
        with pytest.raises(FaultToleranceError, match="trials"):
            sampled_fault_check(h, g, 3, 1, trials=trials, seed=0)
        with pytest.raises(FaultToleranceError, match="trials"):
            sampled_fault_check(h, g, 3, 1, trials=trials, seed=0, kind="edge")
        host_path, spanner_path = str(tmp_path / "g.json"), str(tmp_path / "h.json")
        dump_json(g, host_path)
        dump_json(h, spanner_path)
        code = main(["verify", host_path, spanner_path, "--k", "3", "--r", "1",
                     "--mode", "sampled", "--trials", str(trials)])
        assert code == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "trials" in captured.err


def _k4_with_spanner_missing(vertex):
    """Host K4 and, as spanner, the triangle on the other three vertices."""
    g = complete_graph(4)
    h = g.copy()
    h.remove_vertex(vertex)
    return h, g


class TestSpannerMissingHostVertex:
    """A host vertex the spanner lacks is unreachable, wherever it sits.

    The missing vertex first in host order used to raise ``VertexNotFound``
    from the Dijkstra started at it; last in host order it was already
    reported as a violation by the searches from its neighbours.
    """

    @pytest.mark.parametrize("missing", [0, 3])
    def test_verifiers_reject(self, missing):
        h, g = _k4_with_spanner_missing(missing)
        assert not is_fault_tolerant_spanner(h, g, 3, 1)
        assert not sampled_fault_check(h, g, 3, 1, trials=10, seed=0)
        assert first_violating_fault_set(h, g, 3, 1) == ()
        assert not is_fault_tolerant_spanner(h, g, 3, 1, kind="edge")
        assert not sampled_fault_check(
            h, g, 3, 1, trials=10, seed=0, kind="edge"
        )

    @pytest.mark.parametrize("missing", [0, 3])
    def test_dict_reference_rejects_unless_the_vertex_is_faulted(self, missing):
        h, g = _k4_with_spanner_missing(missing)
        assert not _spanner_holds_after_faults(h, g, 3, ())
        assert not _spanner_holds_after_faults(h, g, 3, (), kind="edge")
        # Faulting the missing vertex removes every demand at it.
        assert _spanner_holds_after_faults(h, g, 3, (missing,))

    def test_cli_prints_fail_and_exits_2(self, tmp_path, capsys):
        h, g = _k4_with_spanner_missing(0)
        host_path, spanner_path = str(tmp_path / "g.json"), str(tmp_path / "h.json")
        dump_json(g, host_path)
        dump_json(h, spanner_path)
        code = main(["verify", host_path, spanner_path, "--k", "3", "--r", "1",
                     "--mode", "exhaustive"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out


class TestLemma31:
    def test_count_two_paths_directed(self):
        g = DiGraph()
        g.add_edge("u", "z1"); g.add_edge("z1", "v")
        g.add_edge("u", "z2"); g.add_edge("z2", "v")
        g.add_edge("u", "v")
        assert count_two_paths(g, "u", "v") == 2

    def test_count_two_paths_undirected(self):
        g = complete_graph(4)
        assert count_two_paths(g, 0, 1) == 2

    def test_edge_satisfied_by_presence(self):
        g = complete_digraph(3)
        assert edge_satisfied(g, 0, 1, r=5)

    def test_edge_satisfied_by_paths(self):
        g = complete_digraph(5)
        h = g.copy()
        h.remove_edge(0, 1)
        # 3 midpoints remain: satisfied for r <= 2, not for r = 3.
        assert edge_satisfied(h, 0, 1, r=2)
        assert not edge_satisfied(h, 0, 1, r=3)

    def test_unsatisfied_edges_lists_violations(self):
        g = knapsack_gap_gadget(2, 10.0)
        h = g.copy()
        h.remove_edge("u", "v")  # only 2 two-paths < r+1 = 3
        bad = unsatisfied_edges(h, g, r=2)
        assert ("u", "v") in bad

    def test_is_ft_2spanner_rejects_negative_r(self):
        g = complete_digraph(3)
        with pytest.raises(FaultToleranceError):
            is_ft_2spanner(g, g, -2)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), r=st.integers(0, 2))
    def test_lemma31_equals_exhaustive_on_random_digraphs(self, seed, r):
        """Lemma 3.1 (polynomial check) ≡ the definition (exhaustive check).

        This is the paper's structural lemma verified as an executable
        property: for random subgraphs H of random digraphs G, the midpoint
        count criterion agrees with enumerating every fault set.
        """
        import random

        g = gnp_random_digraph(7, 0.6, seed=seed)
        rng = random.Random(seed + 1)
        keep = [(u, v) for u, v, _w in g.edges() if rng.random() < 0.75]
        h = g.edge_subgraph(keep)
        lemma = is_ft_2spanner(h, g, r)
        exhaustive = is_fault_tolerant_spanner(h, g, k=2, r=r)
        assert lemma == exhaustive
