"""Unit tests for the Graph / DiGraph data structures."""

from __future__ import annotations

import pytest

from repro.errors import (
    EdgeNotFound,
    GraphError,
    NegativeWeightError,
    VertexNotFound,
)
from repro.graph import DiGraph, Graph


class TestGraphVertices:
    def test_add_vertex(self):
        g = Graph()
        g.add_vertex(1)
        assert g.has_vertex(1)
        assert g.num_vertices == 1

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices == 1

    def test_add_vertices_bulk(self):
        g = Graph()
        g.add_vertices(range(5))
        assert g.num_vertices == 5
        assert g.vertex_set() == set(range(5))

    def test_contains_and_len(self):
        g = Graph()
        g.add_vertices([1, 2])
        assert 1 in g
        assert 3 not in g
        assert len(g) == 2

    def test_vertices_iteration_order_is_insertion(self):
        g = Graph()
        for v in (3, 1, 2):
            g.add_vertex(v)
        assert list(g.vertices()) == [3, 1, 2]


class TestGraphEdges:
    def test_add_edge_adds_endpoints(self):
        g = Graph()
        g.add_edge(1, 2, 3.0)
        assert g.has_vertex(1) and g.has_vertex(2)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.weight(1, 2) == 3.0
        assert g.weight(2, 1) == 3.0
        assert g.num_edges == 1

    def test_default_weight_is_one(self):
        g = Graph()
        g.add_edge("x", "y")
        assert g.weight("x", "y") == 1.0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_negative_weight_rejected(self):
        g = Graph()
        with pytest.raises(NegativeWeightError):
            g.add_edge(1, 2, -0.5)

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_nan_weight_rejected(self, cls):
        g = cls()
        with pytest.raises(NegativeWeightError):
            g.add_edge(1, 2, float("nan"))
        assert g.num_edges == 0

    def test_reweighting_does_not_double_count(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(1, 2, 7.0)
        assert g.num_edges == 1
        assert g.weight(1, 2) == 7.0

    def test_remove_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 0

    def test_remove_missing_edge_raises(self):
        g = Graph()
        g.add_vertices([1, 2])
        with pytest.raises(EdgeNotFound):
            g.remove_edge(1, 2)

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.remove_vertex(2)
        assert g.num_edges == 0
        assert not g.has_vertex(2)
        assert g.has_vertex(1) and g.has_vertex(3)

    def test_weight_of_missing_edge_raises(self):
        g = Graph()
        g.add_vertices([1, 2])
        with pytest.raises(EdgeNotFound):
            g.weight(1, 2)

    def test_weight_of_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFound):
            g.weight(1, 2)

    def test_edges_yields_each_once(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 2.0)
        edges = sorted((min(u, v), max(u, v), w) for u, v, w in g.edges())
        assert edges == [(1, 2, 1.0), (2, 3, 2.0)]

    def test_total_weight(self):
        g = Graph()
        g.add_edge(1, 2, 1.5)
        g.add_edge(2, 3, 2.5)
        assert g.total_weight() == 4.0

    def test_degree_and_max_degree(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        assert g.degree(1) == 2
        assert g.degree(2) == 1
        assert g.max_degree() == 2

    def test_neighbors(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        assert set(g.neighbors(1)) == {2, 3}
        assert dict(g.neighbor_items(1)) == {2: 1.0, 3: 1.0}


class TestGraphDerivedOps:
    def test_copy_is_independent(self):
        g = Graph()
        g.add_edge(1, 2)
        h = g.copy()
        h.add_edge(2, 3)
        h.remove_edge(1, 2)
        assert g.has_edge(1, 2)
        assert not g.has_vertex(3)

    def test_induced_subgraph(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        sub = g.induced_subgraph([1, 2])
        assert sub.num_vertices == 2
        assert sub.has_edge(1, 2)
        assert not sub.has_vertex(3)

    def test_induced_subgraph_ignores_foreign_vertices(self):
        g = Graph()
        g.add_edge(1, 2)
        sub = g.induced_subgraph([1, 2, 99])
        assert sub.num_vertices == 2

    def test_without_vertices(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        survivor = g.without_vertices({2})
        assert survivor.vertex_set() == {1, 3}
        assert survivor.num_edges == 0
        # original untouched
        assert g.num_edges == 2

    def test_edge_subgraph_keeps_all_vertices(self):
        g = Graph()
        g.add_edge(1, 2, 2.0)
        g.add_edge(2, 3, 3.0)
        sub = g.edge_subgraph([(1, 2)])
        assert sub.num_vertices == 3
        assert sub.num_edges == 1
        assert sub.weight(1, 2) == 2.0

    def test_edge_subgraph_missing_edge_raises(self):
        g = Graph()
        g.add_edge(1, 2)
        with pytest.raises(EdgeNotFound):
            g.edge_subgraph([(1, 3)])

    def test_to_directed_doubles_edges(self):
        g = Graph()
        g.add_edge(1, 2, 5.0)
        d = g.to_directed()
        assert d.directed
        assert d.has_edge(1, 2) and d.has_edge(2, 1)
        assert d.num_edges == 2


class TestDiGraph:
    def test_add_edge_is_directed(self):
        g = DiGraph()
        g.add_edge("a", "b", 2.0)
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")
        assert g.num_edges == 1

    def test_successors_predecessors(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(3, 2)
        assert set(g.successors(1)) == {2}
        assert set(g.predecessors(2)) == {1, 3}
        assert g.out_degree(1) == 1
        assert g.in_degree(2) == 2

    def test_max_degree_is_max_in_out(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(3, 2)
        g.add_edge(4, 2)
        assert g.max_degree() == 3

    def test_remove_vertex_cleans_pred(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.remove_vertex(2)
        assert g.num_edges == 0
        assert set(g.vertices()) == {1, 3}

    def test_remove_edge(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        assert g.num_edges == 0
        with pytest.raises(EdgeNotFound):
            g.remove_edge(1, 2)

    def test_reverse(self):
        g = DiGraph()
        g.add_edge(1, 2, 3.0)
        rev = g.reverse()
        assert rev.has_edge(2, 1)
        assert not rev.has_edge(1, 2)
        assert rev.weight(2, 1) == 3.0

    def test_to_undirected_min_weight(self):
        g = DiGraph()
        g.add_edge(1, 2, 3.0)
        g.add_edge(2, 1, 1.0)
        u = g.to_undirected()
        assert u.num_edges == 1
        assert u.weight(1, 2) == 1.0

    def test_copy_independent(self):
        g = DiGraph()
        g.add_edge(1, 2)
        h = g.copy()
        h.remove_edge(1, 2)
        assert g.has_edge(1, 2)

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.add_edge("a", "a")

    def test_without_vertices_directed(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        survivor = g.without_vertices([2])
        assert survivor.has_edge(1, 3)
        assert survivor.num_edges == 1
