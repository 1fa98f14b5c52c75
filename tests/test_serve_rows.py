"""The compiled ``QUERY_DIST`` read path, pinned to the reference read path.

With the C backend, :class:`repro.serve.SpannerService` answers
``QUERY_DIST`` from :class:`repro.serve.rows.SpannerRows`, which every
spanner write edits in place, through the C kernel
:func:`repro.compiled.point.point_dist`. Without it, the service runs
the reference path: a CSR snapshot plus :func:`repro.graph.paths.dijkstra`
(or the dict Dijkstra below ``MIN_DISPATCH_VERTICES``).

* **Equivalence.** Each scenario is replayed here (rows engaged) and in
  a ``REPRO_DISABLE_COMPILED=1`` subprocess (reference path); the full
  ``OpResult`` lists, summaries and spanner digests must be equal.
* **Structure.** After every step, the row entries between live indices
  are exactly the spanner's edges and arcs, and undirected rows keep no
  entry that points at a deleted vertex; on random writes from an empty
  graph, the rows alone answer like the dict Dijkstra.
* **Kernel choice.** The bidirectional search runs only where its
  sums are exact (undirected rows, integral weights, ``2 n max_weight``
  below ``2**53``), each write moves the choice, and both searches
  answer like the reference on either side of it. A query that pushes
  the most items a side can fits the item pool its binding maps, and
  every write that replaces the entry arrays binds a pool that fits
  them.
* **Engagement.** Reads after writes never build a snapshot or run the
  reference Dijkstra, and serve-mixed's kind of service (BA host, r = 1,
  unit weights) reads through the bidirectional search.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import repro
from repro.compiled import ENV_DISABLE, compiled_available, compiled_unavailable_reason
from repro.compiled.point import PointSearch
from repro.graph import (
    DiGraph,
    Graph,
    barabasi_albert_graph,
    connected_gnp_graph,
    gnp_random_digraph,
    gnp_random_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.paths import dijkstra
from repro.serve import (
    ChaosInjector,
    Operation,
    RepairPolicy,
    SpannerService,
    WorkloadGenerator,
    apply_mutations,
    read_write_weights,
    spanner_digest,
    stream_ft2_spanner,
)
from repro.serve import service as service_module
from repro.serve.rows import SpannerRows
from repro.serve.workload import (
    ADD_EDGE,
    ADD_NODE,
    DEL_EDGE,
    DEL_NODE,
    QUERY_DIST,
)

needs_backend = pytest.mark.skipif(
    not compiled_available(),
    reason=f"compiled backend unavailable: {compiled_unavailable_reason()}",
)


# ---------------------------------------------------------------------------
# Scenarios: (host, steps, service kwargs); a step is an Operation or a
# ("repair", tier) pair forcing that repair tier.
# ---------------------------------------------------------------------------


def _stream(host, seed, read_ratio, num_ops):
    return WorkloadGenerator(
        host.copy(), seed=seed, weights=read_write_weights(read_ratio)
    ).generate(num_ops)


def _float_weights(ops, seed):
    """The stream with every ADD_EDGE given a seeded non-integer weight."""
    rng = random.Random(seed)
    return [
        Operation(ADD_EDGE, dict(op.params, weight=rng.uniform(0.5, 3.0)))
        if op.type == ADD_EDGE
        else op
        for op in ops
    ]


def _q(u, v):
    return Operation(QUERY_DIST, {"u": u, "v": v})


def _float_scenario():
    host = gnp_random_graph(60, 0.12, seed=1, weight_range=(0.5, 3.0))
    return host, _float_weights(_stream(host, 2, 0.8, 300), 3), {}


def _small_host_scenario():
    # Below MIN_DISPATCH_VERTICES the reference is the dict Dijkstra.
    host = connected_gnp_graph(24, 0.3, seed=3, weight_range=(1.0, 4.0))
    return host, _float_weights(_stream(host, 9, 0.5, 300), 10), {}


def _digraph_scenario():
    host = gnp_random_digraph(50, 0.12, seed=4, cost_range=(0.5, 3.0))
    return host, _float_weights(_stream(host, 5, 0.6, 250), 6), {}


def _write_heavy_scenario():
    host = connected_gnp_graph(60, 0.1, seed=7)
    return host, _stream(host, 8, 0.5, 400), {}


def _lazy_scenario():
    host = connected_gnp_graph(50, 0.3, seed=3)
    ops = _stream(host, 29, 0.6, 200)
    chaos = ChaosInjector(seed=31, adversarial=True)
    ops[50:50] = chaos.edge_burst(host, 6, spanner=stream_ft2_spanner(host, 1))
    return host, ops, {"policy": RepairPolicy.lazy()}


def _tiers_scenario():
    host = connected_gnp_graph(60, 0.25, seed=5)
    spanner = stream_ft2_spanner(host, 1)
    chaos = ChaosInjector(seed=11, adversarial=True)
    ops = _stream(host, 12, 0.7, 240)
    steps = (
        ops[:60] + chaos.edge_burst(host, 8, spanner=spanner)
        + [("repair", "patch")] + ops[60:120]
        + chaos.node_burst(host, 2, spanner=spanner)
        + [("repair", "region")] + ops[120:180]
        + [("repair", "full")] + ops[180:]
    )
    return host, steps, {"policy": RepairPolicy.lazy()}


def _r2_scenario():
    host = connected_gnp_graph(55, 0.2, seed=13)
    return host, _stream(host, 14, 0.7, 250), {"r": 2}


def _edge_case_scenario():
    host = connected_gnp_graph(50, 0.15, seed=17, weight_range=(1.0, 2.0))
    steps = [
        _q(0, 0),                                   # u == v
        Operation(ADD_NODE, {"v": "iso"}),
        _q(0, "iso"), _q("iso", 0), _q("iso", "iso"),  # unreachable
        _q(0, "ghost"),                             # missing label
        Operation(ADD_NODE, {"v": "x"}),
        Operation(ADD_NODE, {"v": "y"}),
        Operation(ADD_EDGE, {"u": "x", "v": "y", "weight": 0.25}),
        _q("x", "y"), _q("x", 0),                   # another component
        Operation(DEL_NODE, {"v": 5}),
        _q(5, 0), _q(0, 5),                         # deleted label
        Operation(ADD_NODE, {"v": 5}),              # ... added again
        _q(5, 0),
        Operation(ADD_EDGE, {"u": 5, "v": 6, "weight": 1.5}),
        Operation(ADD_EDGE, {"u": 5, "v": "x", "weight": 0.5}),
        _q(5, 0), _q("y", 0), _q(0, "y"),
        Operation(DEL_EDGE, {"u": 5, "v": 6}),
        _q("y", 0),
        Operation(DEL_NODE, {"v": 5}),
        Operation(ADD_NODE, {"v": 5}),
        _q(5, "x"),
    ]
    return host, steps + _stream(host, 18, 0.6, 150), {}


#: Integral weights: zero, small ones, and one large enough to reach the
#: radix queues' high buckets while 2 n max_weight stays below 2**53.
_INTEGRAL = (0.0, 1.0, 2.0, 7.0, 2.0**40)


def _hubs_scenario():
    # Hubs under integral weights: the bidirectional search runs
    # throughout. At the end "far" hangs off the hub by large weights
    # only, and the DEL_NODEs take neighbours of the highest-degree
    # vertex, whose row holds each one's mirror entry.
    rng = random.Random(23)
    ba = barabasi_albert_graph(300, 3, seed=23)
    host = Graph()
    host.add_vertices(ba.vertices())
    for u, v, _w in ba.edges():
        host.add_edge(u, v, rng.choice(_INTEGRAL))
    ops = [
        Operation(ADD_EDGE, dict(op.params, weight=rng.choice(_INTEGRAL)))
        if op.type == ADD_EDGE
        else op
        for op in _stream(host, 24, 0.7, 300)
    ]
    final = apply_mutations(host.copy(), ops)
    hub = max(final.vertices(), key=final.degree)
    others = rng.sample(
        [w for w in final.vertices() if w != hub and not final.has_edge(hub, w)], 5
    )
    ops.append(Operation(ADD_NODE, {"v": "far"}))
    for x in (hub, others[0]):
        ops.append(Operation(ADD_EDGE, {"u": "far", "v": x, "weight": _INTEGRAL[-1]}))
    for v in list(final.neighbors(hub))[:8]:
        ops.append(Operation(DEL_NODE, {"v": v}))
        ops.extend(_q(a, w) for a in (hub, "far") for w in others)
    return host, ops, {}


def _serve_mixed_scenario():
    # serve-mixed's shape at a tenth of its size: unit weights throughout.
    host = barabasi_albert_graph(1000, 5, seed=3)
    return host, _stream(host, 21, 0.9, 250), {"r": 1}


SCENARIOS = {
    "float": _float_scenario,
    "small-host": _small_host_scenario,
    "digraph": _digraph_scenario,
    "write-heavy": _write_heavy_scenario,
    "lazy": _lazy_scenario,
    "tiers": _tiers_scenario,
    "r2": _r2_scenario,
    "edge-cases": _edge_case_scenario,
    "hubs": _hubs_scenario,
    "serve-mixed": _serve_mixed_scenario,
}


def replay(name, check=None) -> str:
    """Replay one scenario; the canonical JSON of everything it answered."""
    host, steps, kwargs = SCENARIOS[name]()
    service = SpannerService(host, seed=0, **kwargs)
    assert (service._rows is not None) == compiled_available()
    results, tiers = [], []
    for step in steps:
        if isinstance(step, Operation):
            results.append(service.apply(step).to_dict())
        else:
            tiers.append(service.repair(tier=step[1]))
        if check is not None:
            check(service)
    return json.dumps(
        {
            "results": results,
            "tiers": tiers,
            "summary": service.summary(),
            "digest": spanner_digest(service.spanner),
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Equivalence: rows + C kernel vs the reference read path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_docs():
    """Every scenario replayed in a fresh interpreter without the backend."""
    env = dict(os.environ)
    env[ENV_DISABLE] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import test_serve_rows as m\n"
        "print(json.dumps({name: m.replay(name) for name in m.SCENARIOS}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_backend
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_compiled_reads_match_the_reference_path(name, reference_docs):
    doc = replay(name)
    assert doc == reference_docs[name]


@needs_backend
def test_scenarios_cover_the_cases_they_name(reference_docs):
    docs = {name: json.loads(doc) for name, doc in reference_docs.items()}
    values = [
        r["value"] for r in docs["edge-cases"]["results"] if r["type"] == QUERY_DIST
    ]
    assert values[0] == 0.0 and None in values
    assert any(
        r["health"] == "degraded" for r in docs["lazy"]["results"]
    )
    assert docs["tiers"]["tiers"] == ["patch", "region", "full"]
    assert docs["r2"]["summary"]["r"] == 2
    _host, hub_steps, _kwargs = _hubs_scenario()
    hubs = [
        r["value"] for op, r in zip(hub_steps, docs["hubs"]["results"])
        if op.type == QUERY_DIST and op.params["u"] != op.params["v"]
        and r["value"] is not None
    ]
    assert 0.0 in hubs and any(v > _INTEGRAL[-1] for v in hubs)
    floats = [
        r["value"] for r in docs["float"]["results"]
        if r["type"] == QUERY_DIST and r["value"] is not None
    ]
    assert any(v != int(v) for v in floats)


# ---------------------------------------------------------------------------
# Structure: the rows mirror the dict spanner after every step
# ---------------------------------------------------------------------------


def _assert_rows_mirror(service):
    spanner, rows = service.spanner, service._rows
    expected = Counter()
    for u, v, w in spanner.edges():
        expected[(u, v, w)] += 1
        if not spanner.directed:
            expected[(v, u, w)] += 1
    assert Counter(rows.entries()) == expected
    assert set(rows._index) == set(spanner.vertices())
    if not spanner.directed:
        # entries() skips retired indices; the raw rows must hold none.
        stored = sum(int(rows._len[i]) for i in rows._index.values())
        assert stored == 2 * spanner.num_edges


@needs_backend
@pytest.mark.parametrize(
    "name", ["write-heavy", "digraph", "tiers", "edge-cases", "hubs"]
)
def test_rows_mirror_the_spanner_after_every_step(name, monkeypatch):
    loads = []
    load = SpannerRows.load

    def counting_load(self, graph):
        loads.append(graph)
        load(self, graph)

    monkeypatch.setattr(SpannerRows, "load", counting_load)
    replay(name, check=_assert_rows_mirror)
    if name == "write-heavy":
        assert len(loads) > 1  # dead slots forced at least one repack


@needs_backend
@pytest.mark.parametrize("directed", [False, True])
def test_rows_track_random_writes_from_an_empty_graph(directed):
    """SpannerRows alone, against the dict graph and its Dijkstra.

    Mixed weights run the one-sided search on most steps; integral ones
    (zero included) run the bidirectional search on undirected rows,
    through deleted vertices and labels added again.
    """
    for trial, integral in itertools.product(range(60), (False, True)):
        rng = random.Random(trial)
        graph = DiGraph() if directed else Graph()
        rows = SpannerRows(graph)
        labels = list(range(10))
        for _ in range(120):
            roll = rng.random()
            edges = list(graph.edges())
            if roll < 0.15:
                v = rng.choice(labels)
                graph.add_vertex(v)
                rows.add_vertex(v)
            elif roll < 0.55:
                u, v = rng.sample(labels, 2)
                if not graph.has_edge(u, v):
                    if integral:
                        w = float(rng.choice([0, 1, 2, 7]))
                    else:
                        w = rng.choice([1.0, 0.5, rng.uniform(0.0, 3.0)])
                    graph.add_edge(u, v, w)
                    rows.add_edge(u, v, w)
            elif roll < 0.8 and edges:
                u, v, _w = rng.choice(edges)
                graph.remove_edge(u, v)
                rows.remove_edge(u, v)
            elif graph.num_vertices:
                v = rng.choice(list(graph.vertices()))
                graph.remove_vertex(v)
                rows.remove_vertex(v)
            weights = [w for _u, _v, w in graph.edges()]
            assert rows.bidirectional == (
                not directed and all(w.is_integer() for w in weights)
            )
            vertices = list(graph.vertices())
            if vertices:
                a, b = rng.choice(vertices), rng.choice(vertices)
                expected = dijkstra(graph, a, target=b).get(b, math.inf)
                assert rows.distance(a, b) == expected
        expected = Counter()
        for u, v, w in graph.edges():
            expected[(u, v, w)] += 1
            if not directed:
                expected[(v, u, w)] += 1
        assert Counter(rows.entries()) == expected


@needs_backend
def test_the_first_row_move_after_a_load_lands_in_reserved_tail_room():
    """A load leaves every row full, and as many free slots after them.

    The first write at a full row moves it into that room: the arrays
    are not regrown (copied), and the answers are a fresh load's.
    """
    graph = connected_gnp_graph(40, 0.2, seed=5)
    rows = SpannerRows(graph)
    nbr, wt = rows._nbr, rows._wt
    vertices = list(graph.vertices())
    u = vertices[0]
    v = next(x for x in vertices[1:] if not graph.has_edge(u, x))
    assert rows._len[rows._index[u]] == rows._cap[rows._index[u]] > 0
    graph.add_edge(u, v, 1.0)
    rows.add_edge(u, v, 1.0)
    assert rows._nbr is nbr and rows._wt is wt
    fresh = SpannerRows(graph)
    for a, b in itertools.product(vertices, repeat=2):
        assert rows.distance(a, b) == fresh.distance(a, b)


# ---------------------------------------------------------------------------
# Kernel choice: which search runs, and that both answer like the reference
# ---------------------------------------------------------------------------


def _spy_searches(monkeypatch):
    """The ``bidirectional`` flag of every PointSearch call, in order."""
    flags = []
    call = PointSearch.__call__

    def spy(self, s, t, gen, bidirectional):
        flags.append(bidirectional)
        return call(self, s, t, gen, bidirectional)

    monkeypatch.setattr(PointSearch, "__call__", spy)
    return flags


@needs_backend
def test_a_fractional_edge_switches_the_search_and_its_removal_back(monkeypatch):
    host = connected_gnp_graph(60, 0.1, seed=7)  # unit weights
    service = SpannerService(host, seed=0)
    flags = _spy_searches(monkeypatch)
    # "x" has no other neighbours, so the service buys each edge of it.
    steps = [
        (Operation(ADD_NODE, {"v": "x"}), True),
        (Operation(ADD_EDGE, {"u": "x", "v": 5, "weight": 0.5}), False),
        (Operation(ADD_EDGE, {"u": "x", "v": 9, "weight": 2.0}), False),
        (Operation(DEL_EDGE, {"u": "x", "v": 5}), True),
    ]
    pairs = [(0, 59), (3, 41), ("x", 17), (17, "x"), (5, 9), ("x", "x")]
    for step, bidirectional in steps:
        assert service.apply(step).ok
        assert service._rows.bidirectional is bidirectional
        flags.clear()
        for a, b in pairs:
            result = service.apply(_q(a, b))
            assert result.ok
            assert result.value == dijkstra(service.spanner, a, target=b).get(b)
        assert flags == [bidirectional] * len(pairs)


@needs_backend
def test_integral_weights_near_two_to_the_52_keep_the_one_sided_search(monkeypatch):
    flags = _spy_searches(monkeypatch)
    # 8 vertices: 2 n max_weight crosses 2**53 between 2**48 and 2**50.
    for weight, bidirectional in ((2.0**48, True), (2.0**50, False), (2.0**52, False)):
        graph = Graph()
        for i in range(7):
            graph.add_edge(i, i + 1, weight - 3 * i)
        graph.add_edge(0, 7, weight - 1)
        graph.add_edge(2, 6, weight - 5)
        rows = SpannerRows(graph)
        assert rows.bidirectional is bidirectional
        flags.clear()
        for a, b in itertools.product(range(8), repeat=2):
            assert rows.distance(a, b) == dijkstra(graph, a, target=b)[b]
        assert set(flags) == {bidirectional}


@needs_backend
def test_serve_mixed_reads_run_the_bidirectional_search(monkeypatch):
    """serve-mixed's kind of service reads through the two-ended search.

    A silent fallback to the one-sided search would still answer right
    (``test_compiled_reads_match_the_reference_path[serve-mixed]``) but
    would label most of the graph per query instead of a small share.
    """
    host, steps, kwargs = SCENARIOS["serve-mixed"]()
    n = host.num_vertices
    service = SpannerService(host, seed=0, **kwargs)
    flags = _spy_searches(monkeypatch)
    labeled = []
    for op in steps:
        asked = len(flags)
        service.apply(op)
        if len(flags) > asked:
            rows = service._rows
            labeled.append(int(np.count_nonzero(
                (rows._stamp_f == rows._gen) | (rows._stamp_b == rows._gen)
            )))
    assert len(flags) > 100 and all(flags)
    assert sorted(labeled)[len(labeled) // 2] < n // 4


@needs_backend
def test_the_item_pool_holds_a_worst_case_query_and_grows_with_the_rows():
    """The bidirectional search's pool: its bound, reached, and regrown.

    A side pops each label once, so with E entries in the rows it pushes
    at most E + 1 items, and the binding holds 2 (len(nbr) + 1) >=
    2 (E + 1). On mirrored rows a side can push at most one item per
    edge plus its source. This query does: on K_n with w(i, i + 1) = 0
    and w(i, j) = n - i otherwise, each expansion from vertex 0 improves
    every label not yet settled, and an unreachable t keeps the best
    meeting at inf, so nothing is pruned until the forward side runs
    dry. The rows grow edge by edge from an empty graph; each write that
    replaces the entry arrays binds a new search whose pool fits them.
    """
    n = 40
    graph = Graph()
    graph.add_vertices([*range(n), "t"])
    rows = SpannerRows(graph)
    assert rows.distance(0, 0) == 0.0
    regrown = 0
    for i, j in itertools.combinations(range(n), 2):
        w = 0.0 if j == i + 1 else float(n - i)
        graph.add_edge(i, j, w)
        before, nbr = rows._search, rows._nbr
        rows.add_edge(i, j, w)
        assert rows.distance(0, "t") == math.inf
        pool = rows._search._pool
        assert pool.shape[0] == 3 * 2 * (rows._nbr.shape[0] + 1)
        assert rows._live <= rows._nbr.shape[0]
        if rows._nbr is not nbr:
            assert rows._search is not before
            regrown += 1
    assert regrown > 3
    pool.fill(-1)  # every item the query writes names a vertex >= 0
    assert rows.distance(0, "t") == math.inf
    pushed = int(np.count_nonzero(pool.reshape(-1, 3)[:, 1] >= 0))
    assert pushed == 2 + n * (n - 1) // 2 == 2 + graph.num_edges
    assert rows.distance(0, n - 1) == 0.0
    assert rows.distance(n - 1, 2) == dijkstra(graph, n - 1, target=2)[2] == 0.0


# ---------------------------------------------------------------------------
# Engagement: no snapshot build and no reference Dijkstra after writes
# ---------------------------------------------------------------------------


@needs_backend
def test_reads_after_writes_rebuild_no_snapshot(monkeypatch):
    host = connected_gnp_graph(60, 0.1, seed=7)
    service = SpannerService(host, seed=0)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the reference read path ran")

    monkeypatch.setattr(CSRGraph, "from_graph", classmethod(refuse))
    monkeypatch.setattr(service_module, "dijkstra", refuse)
    u, v, _w = next(iter(service.spanner.edges()))
    victim = next(x for x in range(10, 60) if x not in (u, v, 59))
    writes = [
        Operation(ADD_NODE, {"v": "fresh"}),
        Operation(ADD_EDGE, {"u": "fresh", "v": 3, "weight": 2.0}),
        Operation(DEL_EDGE, {"u": u, "v": v}),
        Operation(DEL_NODE, {"v": victim}),
    ]
    for write in writes:
        assert service.apply(write).ok
        for a, b in ((0, 59), ("fresh", 0), (u, v)):
            result = service.apply(_q(a, b))
            assert result.ok
            # The dict Dijkstra builds no snapshot for a targeted query.
            expected = dijkstra(service.spanner, a, target=b).get(b)
            assert result.value == expected


# ---------------------------------------------------------------------------
# The C kernel's wrapper contract
# ---------------------------------------------------------------------------


@needs_backend
def test_point_dist_contract():
    # Path 0 -1- 1 -2- 2, isolated vertex 3; row 1 has a spare slot.
    start = np.array([0, 1, 4, 5], dtype=np.int64)
    length = np.array([1, 2, 1, 0], dtype=np.int64)
    nbr = np.array([1, 0, 2, 9, 1, 0], dtype=np.int64)
    wt = np.array([1.0, 1.0, 2.0, 0.0, 2.0, 0.0])

    def state(n=4):  # dist_f, stamp_f, dist_b, stamp_b
        return [np.zeros(n, dtype=dtype) for dtype in (np.float64, np.int64) * 2]

    search = PointSearch(start, length, nbr, wt, *state())
    gen = itertools.count(1)
    for bidirectional in (False, True):
        assert search(0, 2, next(gen), bidirectional) == 3.0
        assert search(2, 0, next(gen), bidirectional) == 3.0
        assert search(2, 2, next(gen), bidirectional) == 0.0
        assert search(0, 3, next(gen), bidirectional) == math.inf
        assert search(3, 0, next(gen), bidirectional) == math.inf
        for s, t in ((0, 4), (-1, 0), (4, 4)):
            with pytest.raises(ValueError, match="out of range"):
                search(s, t, next(gen), bidirectional)
    with pytest.raises(ValueError, match="differ in length"):
        PointSearch(start, length[:3], nbr, wt, *state())
    with pytest.raises(ValueError, match="differ in length"):
        PointSearch(start, length, nbr, wt[:-1], *state())
    with pytest.raises(ValueError, match="differ in length"):
        PointSearch(start, length, nbr, wt, *state(3))
    # A converted copy would not see the caller's writes: no conversion.
    with pytest.raises(ValueError, match="start must be a contiguous 1-d int64"):
        PointSearch(start.astype(np.int32), length, nbr, wt, *state())
    with pytest.raises(ValueError, match="wt must be a contiguous 1-d float64"):
        PointSearch(start, length, nbr, list(wt), *state())
    with pytest.raises(ValueError, match="nbr must be a contiguous"):
        PointSearch(start, length, nbr[::2], wt[::2], *state())
