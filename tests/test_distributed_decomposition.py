"""Padded decompositions (Lemma 3.7): properties and both implementations."""

from __future__ import annotations

import math

import pytest

from repro.distributed import (
    default_radius_cap,
    distributed_padded_decomposition,
    sample_padded_decomposition,
)
from repro.errors import DistributedError
from repro.graph import DiGraph, connected_gnp_graph, grid_graph, path_graph
from repro.rng import ensure_rng


class TestCentralizedSampler:
    def test_every_vertex_assigned(self):
        g = grid_graph(5, 5)
        dec = sample_padded_decomposition(g, seed=1)
        assert set(dec.assignment) == g.vertex_set()

    def test_clusters_partition_vertices(self):
        g = grid_graph(4, 6)
        dec = sample_padded_decomposition(g, seed=2)
        members = [v for c in dec.clusters.values() for v in c]
        assert sorted(members, key=repr) == sorted(g.vertices(), key=repr)

    def test_diameter_bounded_by_cap(self):
        g = grid_graph(6, 6)
        dec = sample_padded_decomposition(g, seed=3)
        # Each cluster lies in a radius-cap ball around its center, so the
        # weak diameter is at most 2 * cap.
        assert dec.max_weak_diameter(g) <= 2 * dec.radius_cap

    def test_padding_frequency_at_least_half(self):
        """Definition 3.6 item 2, verified empirically over samples."""
        g = grid_graph(7, 7)
        rng = ensure_rng(4)
        total, padded = 0, 0
        for i in range(30):
            dec = sample_padded_decomposition(g, seed=rng)
            for v in g.vertices():
                total += 1
                padded += dec.is_padded(g, v)
        assert padded / total >= 0.5

    def test_rejects_directed(self):
        g = DiGraph()
        g.add_edge(1, 2)
        with pytest.raises(DistributedError):
            sample_padded_decomposition(g)

    def test_radius_cap_default(self):
        assert default_radius_cap(100) == math.ceil(8 * math.log(100))
        assert default_radius_cap(1) >= 2


class TestDistributedSampler:
    def test_matches_structure(self):
        g = grid_graph(4, 4)
        dec, sim = distributed_padded_decomposition(g, seed=5)
        assert set(dec.assignment) == g.vertex_set()
        assert sim.rounds <= dec.radius_cap + 1

    def test_rounds_are_logarithmic(self):
        g = grid_graph(5, 8)
        dec, sim = distributed_padded_decomposition(g, seed=6)
        assert sim.rounds <= default_radius_cap(g.num_vertices) + 1

    def test_cluster_membership_within_center_ball(self):
        from repro.graph import bfs_distances

        g = grid_graph(5, 5)
        dec, _sim = distributed_padded_decomposition(g, seed=7)
        for center, members in dec.clusters.items():
            reach = bfs_distances(g, center, cutoff=dec.radii[center])
            for v in members:
                assert v in reach

    def test_padding_frequency_distributed(self):
        g = grid_graph(6, 6)
        rng = ensure_rng(8)
        total, padded = 0, 0
        for _ in range(15):
            dec, _sim = distributed_padded_decomposition(g, seed=rng)
            for v in g.vertices():
                total += 1
                padded += dec.is_padded(g, v)
        assert padded / total >= 0.5

    def test_same_cluster_helper(self):
        g = path_graph(4)
        dec, _ = distributed_padded_decomposition(g, seed=9)
        for u in g.vertices():
            assert dec.same_cluster(u, u)


class TestDistributedSamplerMethodDispatch:
    def test_engine_identical_to_dict_loop(self, output_digest):
        """The seeded run reproduces its recorded output (pinned while an
        array round engine still matched the dict loop)."""
        g = connected_gnp_graph(55, 0.1, seed=30)
        dec, sim = distributed_padded_decomposition(g, seed=31)
        outputs = [sorted(dec.assignment.items()), sorted(dec.radii.items())]
        assert (sim.rounds, sim.messages_sent, output_digest(outputs)) == (
            33, 1424, "15209ea92608411d"
        )
