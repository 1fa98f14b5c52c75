"""Shortest-path algorithms, cross-checked against networkx."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    all_pairs_distances,
    bfs_distances,
    connected_components,
    dijkstra,
    distance,
    distance_at_most,
    eccentricity,
    gnp_random_graph,
    grid_graph,
    hop_diameter,
    is_connected,
    path_graph,
    to_networkx,
    weighted_diameter,
)
from repro.errors import VertexNotFound


class TestDijkstra:
    def test_simple_path(self, small_weighted):
        dist = dijkstra(small_weighted, 0)
        assert dist[0] == 0.0
        assert dist[2] == 2.0  # 0-1-2 beats direct 0-2 of weight 2.5
        assert dist[4] == 4.0  # 0-1-2-3-4 beats direct 10

    def test_cutoff_prunes(self, small_weighted):
        dist = dijkstra(small_weighted, 0, cutoff=1.5)
        assert 0 in dist and 1 in dist
        assert 4 not in dist

    def test_target_early_exit(self, small_weighted):
        dist = dijkstra(small_weighted, 0, target=1)
        assert dist[1] == 1.0

    def test_missing_source_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFound):
            dijkstra(g, 0)

    def test_unreachable_vertex_absent(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_vertex(3)
        dist = dijkstra(g, 1)
        assert 3 not in dist
        assert distance(g, 1, 3) == math.inf

    def test_mixed_vertex_types_no_comparison_error(self):
        g = Graph()
        g.add_edge("a", (1, 2), 1.0)
        g.add_edge((1, 2), 7, 1.0)
        dist = dijkstra(g, "a")
        assert dist[7] == 2.0

    def test_zero_weight_edges(self):
        g = Graph()
        g.add_edge(1, 2, 0.0)
        g.add_edge(2, 3, 0.0)
        assert distance(g, 1, 3) == 0.0

    def test_directed_asymmetry(self, small_digraph):
        assert distance(small_digraph, "a", "c") == 2.0
        assert distance(small_digraph, "c", "a") == math.inf

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 14))
    def test_matches_networkx(self, seed, n):
        g = gnp_random_graph(n, 0.4, seed=seed, weight_range=(0.1, 5.0))
        nxg = to_networkx(g)
        for source in list(g.vertices())[:3]:
            ours = dijkstra(g, source)
            theirs = nx.single_source_dijkstra_path_length(nxg, source)
            assert set(ours) == set(theirs)
            for v in ours:
                assert ours[v] == pytest.approx(theirs[v])


class TestBFSAndStructure:
    def test_bfs_hops(self):
        g = path_graph(5)
        dist = bfs_distances(g, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_cutoff(self):
        g = path_graph(5)
        dist = bfs_distances(g, 0, cutoff=2)
        assert max(dist.values()) == 2

    def test_distance_at_most_boundary(self, small_weighted):
        assert distance_at_most(small_weighted, 0, 2, 2.0)
        assert not distance_at_most(small_weighted, 0, 2, 1.9)

    def test_is_connected(self):
        g = path_graph(4)
        assert is_connected(g)
        g.add_vertex(99)
        assert not is_connected(g)

    def test_empty_and_singleton_connected(self):
        assert is_connected(Graph())
        g = Graph()
        g.add_vertex(1)
        assert is_connected(g)

    def test_connected_components(self):
        g = path_graph(3)
        g.add_edge(10, 11)
        comps = sorted(connected_components(g), key=len)
        assert [len(c) for c in comps] == [2, 3]

    def test_weighted_diameter(self):
        g = path_graph(4, weight=2.0)
        assert weighted_diameter(g) == 6.0

    def test_hop_diameter_grid(self):
        g = grid_graph(3, 4)
        assert hop_diameter(g) == 2 + 3

    def test_eccentricity_disconnected_is_inf(self):
        g = path_graph(3)
        g.add_vertex(42)
        assert eccentricity(g, 0) == math.inf

    def test_all_pairs_matches_single_source(self, random_connected):
        ap = all_pairs_distances(random_connected)
        for v in list(random_connected.vertices())[:4]:
            assert ap[v] == dijkstra(random_connected, v)
