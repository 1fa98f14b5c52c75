"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.graph import (
    DiGraph,
    Graph,
    complete_digraph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_digraph,
    grid_graph,
    knapsack_gap_gadget,
    path_graph,
)


@pytest.fixture
def triangle() -> Graph:
    """K3 with unit weights."""
    return complete_graph(3)


@pytest.fixture
def small_weighted() -> Graph:
    """A 5-vertex weighted graph with a known shortest-path structure."""
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(2, 3, 1.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(0, 4, 10.0)
    g.add_edge(0, 2, 2.5)
    return g

@pytest.fixture
def small_digraph() -> DiGraph:
    """A 4-vertex digraph with one 2-path shortcut."""
    g = DiGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 1.0)
    g.add_edge("a", "c", 5.0)
    g.add_edge("c", "d", 2.0)
    return g


@pytest.fixture
def random_connected() -> Graph:
    """A reproducible connected G(24, 0.25)."""
    return connected_gnp_graph(24, 0.25, seed=42)


@pytest.fixture
def random_digraph() -> DiGraph:
    """A reproducible directed instance for 2-spanner tests."""
    return gnp_random_digraph(10, 0.5, seed=42)


@pytest.fixture
def gadget() -> DiGraph:
    """Knapsack-cover gap gadget with r=2."""
    return knapsack_gap_gadget(2, expensive_cost=100.0)


@pytest.fixture
def output_digest():
    """Short sha256 of a JSON-able seeded output, for pinned-result tests."""

    def digest(obj) -> str:
        blob = json.dumps(obj, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    return digest
