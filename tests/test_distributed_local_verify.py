"""Distributed Lemma 3.1 verification (O(1) LOCAL rounds)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import unsatisfied_edges
from repro.distributed import distributed_lemma31_check
from repro.errors import DistributedError
from repro.graph import complete_digraph, complete_graph, gnp_random_digraph
from repro.two_spanner import approximate_ft2_spanner


def test_accepts_whole_graph():
    g = complete_digraph(5)
    ok, violations, sim = distributed_lemma31_check(g, g, r=3)
    assert ok and not violations
    assert sim.rounds <= 2  # O(1) LOCAL rounds


def test_accepts_rounded_spanner():
    g = gnp_random_digraph(10, 0.5, seed=1)
    result = approximate_ft2_spanner(g, 1, seed=2)
    ok, violations, _sim = distributed_lemma31_check(result.spanner, g, 1)
    assert ok and not violations


def test_detects_planted_violation():
    g = complete_digraph(5)
    h = g.copy()
    h.remove_edge(0, 1)
    # only 3 midpoints remain; with r = 3 the edge is unsatisfied
    ok, violations, _sim = distributed_lemma31_check(h, g, 3)
    assert not ok
    assert (0, 1) in violations


def test_undirected_hosts_supported():
    g = complete_graph(5)
    h = g.copy()
    h.remove_edge(0, 1)
    ok, violations, _sim = distributed_lemma31_check(h, g, 2)
    assert ok  # 3 common neighbours >= r + 1 = 3
    ok2, violations2, _ = distributed_lemma31_check(h, g, 3)
    assert not ok2 and len(violations2) == 1


def test_rejects_negative_r():
    g = complete_digraph(3)
    with pytest.raises(DistributedError):
        distributed_lemma31_check(g, g, -1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), r=st.integers(0, 3))
def test_matches_centralized_verifier(seed, r):
    """The distributed verdict must equal the centralized Lemma 3.1 scan,
    violation for violation."""
    import random

    g = gnp_random_digraph(8, 0.6, seed=seed)
    rng = random.Random(seed + 1)
    keep = [(u, v) for u, v, _w in g.edges() if rng.random() < 0.7]
    h = g.edge_subgraph(keep)
    ok, violations, _sim = distributed_lemma31_check(h, g, r)
    central = unsatisfied_edges(h, g, r)
    assert sorted(map(repr, violations)) == sorted(map(repr, central))
    assert ok == (not central)


def test_engine_path_identical_to_dict_loop(output_digest):
    """The check reproduces its recorded output (pinned while an array
    round engine still matched the dict loop)."""
    g = gnp_random_digraph(50, 0.2, seed=40)
    import random as _random

    rng = _random.Random(41)
    keep = [(u, v) for u, v, _w in g.edges() if rng.random() < 0.6]
    h = g.edge_subgraph(keep)
    pinned = {
        0: (115, "1fff7b349ef539d3"),
        1: (193, "e4ddf7cdacbb6542"),
        2: (214, "f062781aa310272a"),
    }
    for r, (count, digest) in pinned.items():
        ok, violations, sim = distributed_lemma31_check(h, g, r)
        assert (ok, sim.rounds, sim.messages_sent) == (False, 1, 912)
        assert (len(violations), output_digest(sorted(violations))) == (
            count, digest
        )
