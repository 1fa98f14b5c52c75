"""CSR kernel layer: round-trips, dict-equivalence, survivor views.

The contract under test is strict: the CSR fast path must be
*indistinguishable* from the dict implementations — same distances, same
reached sets, same cutoff semantics, and (for the greedy spanner and the
Theorem 2.1 conversion) identical edge sets for a fixed seed.
"""

from __future__ import annotations

import gc
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_mod
from repro.core import fault_tolerant_spanner
from repro.core.verify import IncrementalFT2Verifier, unsatisfied_edges
from repro.graph import (
    CSRGraph,
    DiGraph,
    Graph,
    barabasi_albert_graph,
    bfs_distances,
    connected_gnp_graph,
    csr_snapshot,
    dijkstra,
    gnp_random_digraph,
    gnp_random_graph,
)
from repro.rng import ensure_rng
from repro.serve import stream_ft2_spanner
from repro.spanners import greedy_spanner, greedy_spanner_size_first


def random_graph(seed: int, directed: bool = False, n: int = 60, p: float = 0.15):
    if directed:
        return gnp_random_digraph(n, p, seed=seed)
    return gnp_random_graph(n, p, seed=seed, weight_range=(0.5, 3.0))


from contextlib import contextmanager


@contextmanager
def dict_dispatch():
    """Disable CSR dispatch so the dict implementations run."""
    saved = csr_mod.MIN_DISPATCH_VERTICES
    csr_mod.MIN_DISPATCH_VERTICES = 10**9
    try:
        yield
    finally:
        csr_mod.MIN_DISPATCH_VERTICES = saved


class TestRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), directed=st.booleans())
    def test_round_trip_preserves_graph(self, seed, directed):
        g = random_graph(seed, directed)
        snap = CSRGraph.from_graph(g)
        back = snap.materialize_edge_ids(range(snap.num_edges))
        assert back.directed == g.directed
        assert back.vertex_set() == g.vertex_set()
        assert sorted(map(tuple, back.edges())) == sorted(map(tuple, g.edges()))

    def test_counts_and_tables(self):
        g = random_graph(3)
        snap = CSRGraph.from_graph(g)
        assert snap.num_vertices == g.num_vertices
        assert snap.num_edges == g.num_edges
        for i, v in enumerate(snap.verts):
            assert snap.index[v] == i

    def test_endpoint_arrays_are_built_once_on_first_use(self):
        snap = CSRGraph.from_graph(random_graph(4))
        assert snap._endpoints_np is None  # a snapshot does not pay up front
        alive = [i % 3 != 0 for i in range(snap.num_vertices)]
        snap.survivor_view(alive).filter_edge_ids(range(snap.num_edges))
        edge_u, edge_v = snap.endpoints_np()
        assert snap.endpoints_np()[0] is edge_u  # cached: no second copy
        assert edge_u.dtype == edge_v.dtype == "int64"
        assert (edge_u.tolist(), edge_v.tolist()) == (snap.edge_u, snap.edge_v)

    def test_empty_and_isolated(self):
        g = Graph()
        g.add_vertices(["a", "b"])
        snap = CSRGraph.from_graph(g)
        assert snap.num_edges == 0
        assert snap.materialize_edge_ids([]).vertex_set() == {"a", "b"}


class TestSnapshotCache:
    def test_cache_hit_and_invalidation(self):
        g = random_graph(1)
        s1 = csr_snapshot(g)
        assert csr_snapshot(g) is s1
        u, v, _w = next(iter(g.edge_list()))
        g.remove_edge(u, v)
        s2 = csr_snapshot(g)
        assert s2 is not s1
        assert s2.num_edges == g.num_edges


class TestDijkstraEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), directed=st.booleans())
    def test_full_sssp_matches_dict(self, seed, directed):
        g = random_graph(seed, directed)
        source = next(iter(g.vertices()))
        fast = dijkstra(g, source)
        with dict_dispatch():
            assert dijkstra(g, source) == fast

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cutoff=st.floats(0.5, 6.0),
    )
    def test_cutoff_matches_dict(self, seed, cutoff):
        g = random_graph(seed)
        # Bounded queries only ride an already-cached snapshot; populate
        # it so the fast side genuinely runs the CSR kernel.
        csr_snapshot(g)
        source = next(iter(g.vertices()))
        fast = dijkstra(g, source, cutoff=cutoff)
        with dict_dispatch():
            assert dijkstra(g, source, cutoff=cutoff) == fast

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_target_distance_matches_dict(self, seed):
        g = random_graph(seed)
        csr_snapshot(g)  # target queries are bounded: cache must exist
        vs = list(g.vertices())
        rng = ensure_rng(seed)
        source, target = rng.sample(vs, 2)
        fast = dijkstra(g, source, target=target).get(target, math.inf)
        with dict_dispatch():
            slow = dijkstra(g, source, target=target).get(target, math.inf)
        assert fast == slow

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), cutoff=st.one_of(st.none(), st.integers(1, 4)))
    def test_bfs_matches_dict(self, seed, cutoff):
        g = random_graph(seed, directed=True)
        csr_snapshot(g)  # let the cutoff variants hit the CSR kernel too
        source = next(iter(g.vertices()))
        fast = bfs_distances(g, source, cutoff=cutoff)
        with dict_dispatch():
            assert bfs_distances(g, source, cutoff=cutoff) == fast

    def test_all_pairs_matches_dict(self):
        g = random_graph(7)
        fast = {v: dijkstra(g, v) for v in g.vertices()}
        with dict_dispatch():
            slow = {v: dijkstra(g, v) for v in g.vertices()}
        assert fast == slow

    def test_multi_source_is_min_over_sources(self):
        g = random_graph(11)
        snap = csr_snapshot(g)
        sources = [0, 1, 2]
        dist, owner = snap.multi_source_dijkstra_idx(sources)
        per_source = {s: snap.dijkstra_idx(s)[0] for s in sources}
        for i in range(snap.num_vertices):
            expect = min(per_source[s][i] for s in sources)
            assert dist[i] == expect
            if owner[i] >= 0:
                assert per_source[owner[i]][i] == dist[i]


class TestSurvivorView:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), directed=st.booleans())
    def test_view_matches_induced_subgraph(self, seed, directed):
        g = random_graph(seed, directed)
        snap = csr_snapshot(g)
        rng = ensure_rng(seed + 1)
        alive = [rng.random() < 0.6 for _ in range(snap.num_vertices)]
        view = snap.survivor_view(alive)
        survivors = [v for i, v in enumerate(snap.verts) if alive[i]]
        sub = g.induced_subgraph(survivors)
        ids = view.filter_edge_ids(range(snap.num_edges))
        assert len(ids) == sub.num_edges
        materialized = snap.materialize_edge_ids(ids)
        assert sorted(map(tuple, materialized.edges())) == sorted(
            map(tuple, sub.edges())
        )

    def test_masked_dijkstra_matches_subgraph_dijkstra(self):
        g = random_graph(17)
        snap = csr_snapshot(g)
        rng = ensure_rng(5)
        alive = [rng.random() < 0.7 for _ in range(snap.num_vertices)]
        alive[0] = True
        view = snap.survivor_view(alive)
        row = snap.scipy_kernels().sssp_rows([0], data=view.masked_weights())[0]
        survivors = [v for i, v in enumerate(snap.verts) if alive[i]]
        sub = g.induced_subgraph(survivors)
        expect = dijkstra(sub, snap.verts[0])
        got = {snap.verts[i]: d for i, d in enumerate(row) if d < math.inf}
        assert got == expect


class TestSpannerEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3, 5]))
    def test_greedy_indexed_equals_dict(self, seed, k):
        g = gnp_random_graph(50, 0.2, seed=seed, weight_range=(0.5, 3.0))
        a = greedy_spanner(g, k)
        b = greedy_spanner(g, k, method="dict")
        assert sorted(map(tuple, a.edges())) == sorted(map(tuple, b.edges()))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_greedy_unit_weight_and_directed_equivalence(self, seed):
        for g in (
            connected_gnp_graph(40, 0.2, seed=seed),
            gnp_random_digraph(40, 0.2, seed=seed),
        ):
            a = greedy_spanner(g, 3)
            b = greedy_spanner(g, 3, method="dict")
            assert sorted(map(tuple, a.edges())) == sorted(map(tuple, b.edges()))

    def test_greedy_size_first_equivalence(self):
        g = gnp_random_graph(40, 0.3, seed=9, weight_range=(0.5, 3.0))
        a = greedy_spanner_size_first(g, 3, max_edges=25)
        b = greedy_spanner_size_first(g, 3, max_edges=25, method="dict")
        assert sorted(map(tuple, a.edges())) == sorted(map(tuple, b.edges()))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), r=st.sampled_from([1, 2]))
    def test_conversion_engine_equals_dict_pipeline(self, seed, r):
        g = gnp_random_graph(45, 0.25, seed=seed, weight_range=(0.5, 3.0))
        fast = fault_tolerant_spanner(g, 3, r, iterations=8, seed=seed + 1)
        # A wrapper lambda is not `greedy_spanner` itself, so this forces
        # the induced-subgraph dict pipeline with the same RNG stream.
        slow = fault_tolerant_spanner(
            g, 3, r, iterations=8, seed=seed + 1,
            base_algorithm=lambda h, k: greedy_spanner(h, k),
        )
        assert sorted(map(tuple, fast.spanner.edges())) == sorted(
            map(tuple, slow.spanner.edges())
        )
        assert fast.stats.survivor_sizes == slow.stats.survivor_sizes
        assert fast.stats.iteration_edge_counts == slow.stats.iteration_edge_counts
        assert fast.stats.union_edge_counts == slow.stats.union_edge_counts

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conversion_equivalence_on_weight_ties(self, seed):
        # Unit weights + string labels: every edge ties, and vertex hash
        # order is randomized — the engine and the dict pipeline must
        # still break ties identically (induced_subgraph preserves the
        # host's vertex iteration order).
        base = connected_gnp_graph(40, 0.2, seed=seed)
        g = Graph()
        g.add_vertices(f"v{v}" for v in base.vertices())
        for u, v, w in base.edges():
            g.add_edge(f"v{u}", f"v{v}", w)
        fast = fault_tolerant_spanner(g, 3, 2, iterations=6, seed=seed)
        slow = fault_tolerant_spanner(
            g, 3, 2, iterations=6, seed=seed,
            base_algorithm=lambda h, k: greedy_spanner(h, k, method="dict"),
        )
        assert sorted(map(tuple, fast.spanner.edges())) == sorted(
            map(tuple, slow.spanner.edges())
        )


def _lemma31_state(verifier):
    """A verifier's Lemma 3.1 state, comparable with ``==``."""
    return (
        verifier._counts,
        verifier._kept,
        verifier._unsat,
        verifier.unsatisfied(),
        verifier._out,
        verifier._in,
        list(verifier.host_edges()),
    )


class TestIncrementalVerifier:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), r=st.sampled_from([0, 1, 2]), directed=st.booleans())
    def test_matches_bulk_verifier_under_growth(self, seed, r, directed):
        g = random_graph(seed, directed, n=24, p=0.3)
        rng = ensure_rng(seed + 2)
        edges = g.edge_list()
        rng.shuffle(edges)
        spanner = type(g)()
        spanner.add_vertices(g.vertices())
        verifier = IncrementalFT2Verifier(g, r)
        # interleave growth with checks at several prefixes
        checkpoints = {0, len(edges) // 3, (2 * len(edges)) // 3, len(edges)}
        for idx, (u, v, w) in enumerate(edges, start=1):
            spanner.add_edge(u, v, w)
            verifier.add_edge(u, v)
            if idx in checkpoints:
                assert verifier.unsatisfied() == unsatisfied_edges(spanner, g, r)
                assert verifier.is_valid() == (not unsatisfied_edges(spanner, g, r))
        assert verifier.is_valid()  # full host graph always passes

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r=st.sampled_from([0, 1, 2, 3]),
        directed=st.booleans(),
        stream=st.booleans(),
    )
    def test_bulk_constructor_equals_incremental(self, seed, r, directed, stream):
        """The bulk-built state is the one grown edge by edge, and stays it.

        The spanner is the ``ft2-stream`` one or a random subgraph. Both
        verifiers then take one random sequence of spanner and host
        mutations, and must agree after every call.
        """
        g = random_graph(seed, directed, n=24, p=0.3)
        rng = random.Random(seed)
        if stream:
            h = stream_ft2_spanner(g, r)
        else:
            h = g.edge_subgraph(
                [(u, v) for u, v, _w in g.edges() if rng.random() < 0.5]
            )
        bulk = IncrementalFT2Verifier(g, r, spanner=h)
        grown = IncrementalFT2Verifier(g, r)
        for u, v, _w in h.edges():
            grown.add_edge(u, v)
        assert bulk.unsatisfied() == unsatisfied_edges(h, g, r)
        assert _lemma31_state(bulk) == _lemma31_state(grown)
        for step in range(60):
            vertices = sorted(bulk._out)
            host = list(bulk.host_edges())
            pools = {
                "add_edge": host,
                "remove_edge": [(u, x) for u in vertices for x in sorted(bulk._out[u])],
                "add_host_edge": [(u, x) for u in vertices for x in vertices if u != x],
                "remove_host_edge": host,
                "add_host_vertex": [(100 + step,)],
                "remove_host_vertex": [(v,) for v in vertices],
            }
            name = rng.choice(sorted(pools))
            if not pools[name]:
                continue
            args = rng.choice(pools[name])
            if not directed and rng.random() < 0.5:
                args = args[::-1]  # either orientation names an undirected edge
            for verifier in (bulk, grown):
                getattr(verifier, name)(*args)
            assert _lemma31_state(bulk) == _lemma31_state(grown), (name, args)

    def test_new_host_edge_hands_no_large_dict_to_the_young_generation(self):
        """Host edge positions live in small vertex-keyed maps.

        After a full collection, a map keyed by fresh endpoint tuples
        (one entry per host edge and orientation) would re-enter
        generation 0 on the next insert, and the next young collection
        would traverse all of it.
        """
        g = barabasi_albert_graph(2000, 5, seed=1)
        verifier = IncrementalFT2Verifier(g, 1, spanner=stream_ft2_spanner(g, 1))
        max_degree = max(g.degree(v) for v in g.vertices())
        vertices = list(g.vertices())
        u = vertices[-1]  # BA's last vertices have low degree, far below max
        v = next(x for x in reversed(vertices[:-1]) if not g.has_edge(u, x))
        owned = [d for d in vars(verifier).values() if isinstance(d, dict)]
        owned += [x for d in list(owned) for x in d.values() if isinstance(x, dict)]
        large = {id(d) for d in owned if len(d) > max_degree}
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            verifier.add_host_edge(u, v)
            young = {id(o) for o in gc.get_objects(0) if isinstance(o, dict)}
        finally:
            if was_enabled:
                gc.enable()
        assert large and not large & young

    def test_rejects_negative_r_and_non_host_edges(self):
        from repro.errors import FaultToleranceError

        g = random_graph(2, n=24, p=0.3)
        with pytest.raises(FaultToleranceError):
            IncrementalFT2Verifier(g, -1)
        verifier = IncrementalFT2Verifier(g, 1)
        non_edges = [
            (u, v)
            for u in g.vertices()
            for v in g.vertices()
            if u != v and not g.has_edge(u, v)
        ]
        if non_edges:
            with pytest.raises(FaultToleranceError):
                verifier.count_two_paths(*non_edges[0])
