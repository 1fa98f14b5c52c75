"""Perf — CSR fast-path kernels vs the dict-of-dict implementations.

Micro-benchmarks for the hot paths the kernel layer rewired. PR 1:

* **greedy spanner** (cutoff Dijkstra inside [ADD+93]) — indexed kernel
  with bounded bidirectional search vs the original dict pipeline;
* **conversion loop** (Theorem 2.1 oversampling) — survivor bitmasks over
  one CSR snapshot vs per-iteration ``induced_subgraph`` + dict greedy;
* **Lemma 3.1 verifier** — set-intersection bulk check and the O(Δ)
  incremental counter vs the per-edge recount, at two sizes.

PR 2 routed the rest of the algorithm stack onto the kernels:

* **Thorup–Zwick spanner** — compiled Johnson-primed batched cluster
  searches + vectorized tree extraction vs the dict construction;
* **Baswana–Sen spanner** — whole-array clustering phases (scatter-min
  grouping, one aliveness mask) vs the dict working-edge-map rounds;
* **TZ distance oracle** — same kernels, bunch/witness form;
* **CLPR09 baseline** — one snapshot + per-fault-set masked weight
  vectors vs a ``without_vertices`` dict copy per fault set;
* **padded decomposition** (Lemma 3.7) — batched unit-weight limited
  SSSP balls vs per-center dict BFS.

PR 10 added the optional compiled (C) tier:

* **greedy compiled** (``greedy_compiled``) — the bounded bidirectional
  Dijkstra inside the greedy spanner, run in the C backend
  (:mod:`repro.compiled`) vs the pinned dict reference.

The fault-set verifier runs on the compiled tier too:

* **fault-set check** (``fault_check_compiled``) — one bounded search
  per surviving host edge on the spanner's masked CSR snapshot, in C,
  vs the dict reference's ``without_vertices`` copies and all-source
  Dijkstra, over verify-sampled's instance (a ``theorem21`` r = 2
  spanner of G(400, 0.05)) and 20 seeded fault sets.

The spanner service's distance reads run on the compiled tier too:

* **serve query** (``serve_query_compiled``) — ``SpannerService``
  replaying a 90/10 read/write stream on serve-mixed's host (BA, m = 5,
  r = 1), answering ``QUERY_DIST`` with the C search over rows every
  spanner write edits in place (bidirectional here: the weights are
  all 1.0), vs the reference read path (a CSR snapshot rebuilt after
  each write, then the interpreted Dijkstra) that machines without a
  compiler run.

The Theorem 2.1 conversion runs whole on the compiled tier too:

* **theorem21 batch** (``theorem21_compiled``) — ``fault_tolerant_spanner``
  with ``method="auto"``, whose iterations run as one C call split across
  the CPU's threads (MT19937 survivor draws, masked greedy passes, union
  byte mask), vs ``method="csr"``, the interpreted per-iteration loop
  that machines without a compiler run. Unlike the other compiled pairs
  its reference is the csr tier, not dict: the two sides share the
  snapshot, the sort and the RNG contract, so the ratio isolates the
  iteration loop.

Sweeps start their shard children from the warm supervisor:

* **LP sweep plan** (``sweep_lp_plan``) — ``run_sweep(plan, workers=2)``
  of an ``ft2-approx`` plan of lp-sweep's shape (Theorem 3.3: LP (4) by
  row generation, then Algorithm 1's rounding), with the shard children
  forked, as on Linux when no other thread outlives a fork, vs spawned,
  which the same supervisor does while a second thread is alive (a
  parked ``threading.Thread`` here) and on every other platform. The
  ratio is the child start-up (interpreter, ``import repro``) that
  forking saves. It is skipped (with a printed note) where the
  supervisor would spawn anyway: off Linux, or while a native thread
  that outlives a fork is alive.

LP solves go straight through SciPy's compiled HiGHS binding:

* **LP HiGHS binding** (``lp_highs_binding``) — ``run_sweep(plan,
  workers=1)`` of lp-sweep's ``ft2-approx`` plan in this process, with
  every LP round passed to HiGHS through ``scipy.optimize._highspy._core``
  as ``linprog(method="highs")`` passes it, vs the same plan with that
  binding hidden, so that ``linprog`` itself runs, as on a SciPy without
  the binding. HiGHS does the same work on both sides; the ratio is
  linprog's Python front end, about 4 ms per solve. It is skipped (with
  a printed note) where SciPy has no binding.

LP (4) starts with the arcs every r-FT 2-spanner buys already fixed:

* **LP presolve** (``lp_presolve``) — ``solve_ft2_lp`` on the hosts of
  lp-sweep's plan at r ∈ {1, 2}, which fixes every arc with at most r
  two-paths at x = 1 (Lemma 3.1) before its first solve, vs row
  generation with the knapsack-cover oracle over the full LP (3) model
  of ``build_ft2_lp``, where the oracle finds those arcs' x ≥ 1 rows one
  round at a time. Both sides reach LP (4)'s optimum.

The spanner service builds its Lemma 3.1 state once, in bulk:

* **serve start-up** (``serve_startup``) — a service's start on
  serve-mixed's host shape (BA, m = 5, r = 1): ``stream_ft2_spanner``,
  which decides from the bought spanner's adjacency sets, then the bulk
  constructor ``IncrementalFT2Verifier(host, 1, spanner)``, vs the two
  passes of O(Δ) updates it replaces, written with public calls only
  (the stream decided by a growing verifier, then a second verifier
  grown by ``add_edge`` over the spanner's edges). No compiled backend
  is needed.

The compiled pairs are skipped (with a printed note) when the backend
cannot build/load, so the committed baseline from a full container
always carries them but a bare environment can still run the rest.

Each pair runs the *same seeds* and asserts identical outputs before
timing, so the speedups compare equal work. Results are written to
``BENCH_perf_kernels.json`` at the repo root — committed as the perf
baseline so future PRs have a trajectory to compare against
(``benchmarks/check_regression.py`` is the opt-in gate).

Run as a pytest benchmark (``pytest benchmarks/bench_perf_kernels.py
--benchmark-only``) or standalone (``python benchmarks/bench_perf_kernels.py``).
"""

from __future__ import annotations

import gc
import json
import os
import time

from repro.core import clpr_fault_tolerant_spanner, fault_tolerant_spanner
from repro.core.verify import (
    IncrementalFT2Verifier,
    edge_satisfied,
    unsatisfied_edges,
)
from repro.distributed import sample_padded_decomposition
from repro.graph import connected_gnp_graph, gnp_random_graph
from repro.spanners import (
    baswana_sen_spanner,
    build_distance_oracle,
    greedy_spanner,
    thorup_zwick_spanner,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_perf_kernels.json")

#: Acceptance floor for the headline kernels at n ≈ 400 (measured
#: ~7-27x on the reference container; the margin absorbs slow CI).
MIN_HEADLINE_SPEEDUP = 5.0

#: Acceptance floor for the compiled greedy Dijkstra over the dict path
#: at n = 400 (PR 10 tentpole criterion; measured well above on the
#: reference container).
MIN_COMPILED_GREEDY_SPEEDUP = 3.0

#: Acceptance floor for the compiled fault-set check over the dict
#: reference at n = 400 (measured in the hundreds).
MIN_COMPILED_FAULT_CHECK_SPEEDUP = 50.0

#: Acceptance floor for a Theorem 2.1 run on the compiled batch over the
#: interpreted csr loop at n = 2000 (10.7-12.7x measured on a 2-vCPU VM;
#: the margin covers a one-CPU runner, where the batch runs single-threaded).
MIN_COMPILED_THEOREM21_SPEEDUP = 5.0

#: Acceptance floor for a service replay with compiled QUERY_DIST reads
#: over the reference read path at n = 10^4 (361-477x over three runs
#: on a 2-vCPU VM, with the bidirectional search on its unit weights;
#: half the lowest).
MIN_COMPILED_SERVE_QUERY_SPEEDUP = 180.0

#: Acceptance floor for an lp-sweep plan at ``workers=2`` with forked
#: shard children over spawned ones (1.53x measured on a 2-vCPU VM).
MIN_FORKED_SWEEP_SPEEDUP = 1.2

#: Acceptance floor for an in-process lp-sweep plan solved through the
#: HiGHS binding over the same plan through ``linprog``.
MIN_LP_BINDING_SPEEDUP = 1.3

#: Acceptance floor for LP (4) with the forced arcs fixed up front over
#: row generation on the full LP (3) model, on lp-sweep's hosts.
MIN_LP_PRESOLVE_SPEEDUP = 1.5

#: Acceptance floor for a service's bulk Lemma 3.1 start-up over the two
#: edge-by-edge passes at n = 10^4 (2.5-3.3x measured on a 2-vCPU VM, with
#: the garbage collector off while the clock runs).
MIN_SERVE_STARTUP_SPEEDUP = 1.5


def _clock(fn, repeats: int = 1) -> float:
    # Like timeit: collections are scheduled by allocation pressure from
    # *earlier* benchmarks, so GC pauses land on whichever side is timed
    # when the threshold trips — disable it while the clock runs.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def _edge_set(graph):
    return sorted(map(tuple, graph.edges()))


def bench_greedy(n: int = 400, p: float = 0.08, k: float = 3.0) -> dict:
    g = gnp_random_graph(n, p, seed=1, weight_range=(0.5, 3.0))
    fast = greedy_spanner(g, k)
    slow = greedy_spanner(g, k, method="dict")
    assert _edge_set(fast) == _edge_set(slow)
    t_fast = _clock(lambda: greedy_spanner(g, k), repeats=2)
    t_slow = _clock(lambda: greedy_spanner(g, k, method="dict"))
    return {
        "name": "greedy_spanner",
        "n": n,
        "m": g.num_edges,
        "params": {"p": p, "k": k},
        "dict_seconds": t_slow,
        "csr_seconds": t_fast,
        "speedup": t_slow / t_fast,
    }


def bench_greedy_compiled(n: int = 400, p: float = 0.08, k: float = 3.0) -> dict:
    """Compiled greedy Dijkstra vs the pinned dict reference (PR 10).

    Same host/seed as :func:`bench_greedy` so the three tiers (dict,
    CSR-indexed, compiled) are directly comparable across the committed
    rows. Requires the C backend; callers gate on ``compiled_available``.
    """
    g = gnp_random_graph(n, p, seed=1, weight_range=(0.5, 3.0))
    fast = lambda: greedy_spanner(g, k, method="compiled")  # noqa: E731
    slow = lambda: greedy_spanner(g, k, method="dict")  # noqa: E731
    assert _edge_set(fast()) == _edge_set(slow())
    return _pair_row(
        "greedy_compiled", g, fast, slow, {"p": p, "k": k},
        fast_key="compiled_seconds",
    )


def bench_theorem21_compiled(
    n: int = 2000, p: float = 0.01, r: int = 1, iterations: int = 16
) -> dict:
    """Theorem 2.1 in one threaded C call vs the interpreted csr loop.

    One weighted G(n, p) host, k = 3, seeded; the snapshot is cached
    before timing, so both sides time the same iteration work. The edge
    lists (``edges()`` order) and every ``ConversionStats`` field are
    asserted identical first.
    """
    g = gnp_random_graph(n, p, seed=3, weight_range=(1.0, 10.0))

    def run(method):
        return fault_tolerant_spanner(
            g, 3, r, iterations=iterations, seed=7, method=method
        )

    fast, slow = run("auto"), run("csr")
    assert list(fast.spanner.edges()) == list(slow.spanner.edges())
    assert fast.stats == slow.stats
    return _pair_row(
        "theorem21_compiled", g, lambda: run("auto"), lambda: run("csr"),
        {"p": p, "r": r, "k": 3, "iterations": iterations, "reference": "csr"},
        fast_key="compiled_seconds", slow_key="csr_seconds",
    )


def bench_fault_check_compiled(
    n: int = 400, p: float = 0.05, r: int = 2, trials: int = 20
) -> dict:
    """Compiled per-edge fault-set check vs the dict reference.

    The perfbench verify-sampled instance at full size: a ``theorem21``
    r = 2, k = 3 spanner of a weighted G(n, p), checked against
    ``trials`` seeded fault sets. The compiled side includes building its
    per-(spanner, host) arrays, as one verifier call does. Verdicts are
    asserted identical before timing.
    """
    import random

    from repro.core.verify import _compiled_check, _spanner_holds_after_faults

    g = gnp_random_graph(n, p, seed=2, weight_range=(1.0, 10.0))
    h = fault_tolerant_spanner(g, 3.0, r, seed=7).spanner
    rng = random.Random(9)
    vertices = list(g.vertices())
    faults = [rng.sample(vertices, rng.randint(0, r)) for _ in range(trials)]

    def fast():
        check = _compiled_check(h, g, 3.0)
        return [_spanner_holds_after_faults(h, g, 3.0, f, check) for f in faults]

    def slow():
        return [_spanner_holds_after_faults(h, g, 3.0, f) for f in faults]

    verdicts = fast()
    assert verdicts == slow()
    return _pair_row(
        "fault_check_compiled", g, fast, slow,
        {"p": p, "r": r, "k": 3.0, "fault_sets": trials,
         "valid": sum(verdicts)},
        fast_key="compiled_seconds",
    )


def bench_serve_query_compiled(n: int = 10_000, num_ops: int = 400) -> dict:
    """Compiled QUERY_DIST over write-maintained rows vs the reference reads.

    serve-mixed's shape: a Barabási–Albert (m = 5) host, an r = 1
    service and a seeded 90/10 read/write stream, replayed through both
    read paths. The reference side is the same service with its rows
    dropped, which is the path a machine without a compiler runs (CSR
    snapshot after each write, interpreted Dijkstra). The ``OpResult``
    lists are asserted equal before timing. Each timed repeat replays
    the stream on a freshly built service; the build is not timed.
    """
    from repro.graph import barabasi_albert_graph
    from repro.serve import SpannerService, WorkloadGenerator, read_write_weights

    host = barabasi_albert_graph(n, 5, seed=3)
    stream = WorkloadGenerator(
        host, seed=7, weights=read_write_weights(0.9)
    ).generate(num_ops)

    def service(compiled):
        fresh = SpannerService(host.copy(), r=1, seed=0)
        if not compiled:
            fresh._rows = None  # serve QUERY_DIST by the reference path
        return fresh

    def replay_seconds(compiled, repeats):
        best = float("inf")
        for _ in range(repeats):
            fresh = service(compiled)
            best = min(best, _clock(lambda: fresh.apply_all(stream)))
        return best

    answers = [res.to_dict() for res in service(True).apply_all(stream)]
    reference = service(False)
    assert answers == [res.to_dict() for res in reference.apply_all(stream)]
    assert reference._rows is None  # no full rebuild brought the rows back
    t_fast = replay_seconds(True, 3)
    t_slow = replay_seconds(False, 2)
    return {
        "name": "serve_query_compiled",
        "n": n,
        "m": host.num_edges,
        "params": {
            "host": "barabasi_albert(m=5)", "r": 1, "read_ratio": 0.9,
            "ops": num_ops,
            "queries": sum(res["type"] == "QUERY_DIST" for res in answers),
            "reference": "csr_snapshot + dijkstra",
        },
        "dict_seconds": t_slow,
        "compiled_seconds": t_fast,
        "speedup": t_slow / t_fast,
    }


def bench_conversion(n: int = 400, p: float = 0.05, r: int = 2, iters: int = 20) -> dict:
    g = gnp_random_graph(n, p, seed=2, weight_range=(0.5, 3.0))

    def fast():
        return fault_tolerant_spanner(g, 3, r, iterations=iters, seed=7)

    def slow():
        # A wrapper lambda is not `greedy_spanner` itself, so the driver
        # takes the original induced-subgraph dict pipeline.
        return fault_tolerant_spanner(
            g, 3, r, iterations=iters, seed=7,
            base_algorithm=lambda h, k: greedy_spanner(h, k, method="dict"),
        )

    assert _edge_set(fast().spanner) == _edge_set(slow().spanner)
    t_fast = _clock(lambda: fast(), repeats=2)
    t_slow = _clock(lambda: slow())
    return {
        "name": "conversion_loop",
        "n": n,
        "m": g.num_edges,
        "params": {"p": p, "r": r, "iterations": iters},
        "dict_seconds": t_slow,
        "csr_seconds": t_fast,
        "speedup": t_slow / t_fast,
    }


def _naive_unsatisfied(spanner, graph, r):
    """The seed's per-edge recount (rebuilds both endpoint sets per edge)."""
    return [
        (u, v) for u, v, _w in graph.edges() if not edge_satisfied(spanner, u, v, r)
    ]


def bench_verifier(n: int, p: float = 0.1, r: int = 1) -> dict:
    g = gnp_random_graph(n, p, seed=3)
    h = greedy_spanner(g, 2)
    assert unsatisfied_edges(h, g, r) == _naive_unsatisfied(h, g, r)
    t_fast = _clock(lambda: unsatisfied_edges(h, g, r), repeats=2)
    t_slow = _clock(lambda: _naive_unsatisfied(h, g, r))

    # Rounding-loop shape: grow a spanner edge by edge, re-checking
    # validity after every addition. Incremental = O(Δ) per add; the naive
    # loop recounts O(m·Δ) per add.
    additions = [(u, v) for u, v, _w in g.edges() if not h.has_edge(u, v)][:60]

    def incremental():
        verifier = IncrementalFT2Verifier(g, r, spanner=h)
        for u, v in additions:
            verifier.add_edge(u, v)
            verifier.is_valid()

    def naive_loop():
        grown = h.copy()
        for u, v in additions:
            grown.add_edge(u, v, g.weight(u, v))
            _naive_unsatisfied(grown, g, r)

    t_inc = _clock(incremental)
    t_naive = _clock(naive_loop)
    return {
        "name": f"lemma31_verifier_n{n}",
        "n": n,
        "m": g.num_edges,
        "params": {"p": p, "r": r, "incremental_additions": len(additions)},
        "dict_seconds": t_slow,
        "csr_seconds": t_fast,
        "speedup": t_slow / t_fast,
        "incremental_loop_seconds": t_inc,
        "naive_loop_seconds": t_naive,
        "incremental_speedup": t_naive / t_inc,
    }


def _pair_row(name, graph, fast_fn, slow_fn, params, fast_repeats=3,
              fast_key="csr_seconds", slow_key="dict_seconds"):
    """Time a kernel/reference pair (callers assert output identity first).

    ``fast_key`` and ``slow_key`` name the two columns — ``"dict_seconds"``,
    ``"csr_seconds"`` or ``"compiled_seconds"`` — so the committed JSON
    says which tier produced each number.
    """
    t_fast = _clock(fast_fn, repeats=fast_repeats)
    t_slow = _clock(slow_fn, repeats=2)
    return {
        "name": name,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "params": params,
        slow_key: t_slow,
        fast_key: t_fast,
        "speedup": t_slow / t_fast,
    }


def bench_thorup_zwick(n: int = 400, t: int = 2) -> dict:
    # Complete weighted host: the regime TZ's O(t·n^{1+1/t}) bound targets
    # (and the host family E1 uses).
    g = gnp_random_graph(n, 1.0, seed=4, weight_range=(0.5, 3.0))
    fast = lambda: thorup_zwick_spanner(g, t, seed=5, method="csr")  # noqa: E731
    slow = lambda: thorup_zwick_spanner(g, t, seed=5, method="dict")  # noqa: E731
    assert _edge_set(fast()) == _edge_set(slow())
    return _pair_row("thorup_zwick", g, fast, slow, {"t": t, "host": "K_n weighted"})


def bench_baswana_sen(n: int = 400, k: int = 4) -> dict:
    g = gnp_random_graph(n, 1.0, seed=4, weight_range=(0.5, 3.0))
    fast = lambda: baswana_sen_spanner(g, k, seed=9, method="csr")  # noqa: E731
    slow = lambda: baswana_sen_spanner(g, k, seed=9, method="dict")  # noqa: E731
    assert _edge_set(fast()) == _edge_set(slow())
    return _pair_row("baswana_sen", g, fast, slow, {"k": k, "host": "K_n weighted"})


def bench_distance_oracle(n: int = 400, p: float = 0.1, t: int = 2) -> dict:
    g = gnp_random_graph(n, p, seed=2, weight_range=(0.5, 3.0))
    fast = lambda: build_distance_oracle(g, t, seed=5, method="csr")  # noqa: E731
    slow = lambda: build_distance_oracle(g, t, seed=5, method="dict")  # noqa: E731
    a, b = fast(), slow()
    assert a.bunches == b.bunches and a.witnesses == b.witnesses
    return _pair_row("tz_distance_oracle", g, fast, slow, {"p": p, "t": t})


def bench_clpr(n: int = 120, t: int = 2, r: int = 1) -> dict:
    g = gnp_random_graph(n, 1.0, seed=1, weight_range=(0.5, 3.0))
    fast = lambda: clpr_fault_tolerant_spanner(  # noqa: E731
        g, t, r, seed=0, method="csr"
    )
    slow = lambda: clpr_fault_tolerant_spanner(  # noqa: E731
        g, t, r, seed=0, method="dict"
    )
    assert _edge_set(fast().spanner) == _edge_set(slow().spanner)
    f = lambda: fast()  # noqa: E731
    s = lambda: slow()  # noqa: E731
    t_fast = _clock(f, repeats=2)
    t_slow = _clock(s)
    return {
        "name": "clpr_baseline",
        "n": n,
        "m": g.num_edges,
        "params": {"t": t, "r": r, "host": "K_n weighted"},
        "dict_seconds": t_slow,
        "csr_seconds": t_fast,
        "speedup": t_slow / t_fast,
    }


def bench_decomposition(n: int = 400, p: float = 0.03) -> dict:
    g = connected_gnp_graph(n, p, seed=2)
    fast = lambda: sample_padded_decomposition(g, seed=5, method="csr")  # noqa: E731
    slow = lambda: sample_padded_decomposition(g, seed=5, method="dict")  # noqa: E731
    a, b = fast(), slow()
    assert a.assignment == b.assignment and a.radii == b.radii
    return _pair_row("padded_decomposition", g, fast, slow, {"p": p})


def bench_edge_conversion(n: int = 400, p: float = 0.05, r: int = 2,
                          iters: int = 20) -> dict:
    """Edge-fault theorem21: edge-masked snapshot views vs edge_subgraph.

    The zero-copy loop (one host snapshot, per-iteration ``edge_alive``
    masks, integer edge-id union) against the pinned dict reference
    (materialize ``edge_subgraph`` + dict greedy per iteration).
    """
    g = gnp_random_graph(n, p, seed=2, weight_range=(0.5, 3.0))
    fast = lambda: fault_tolerant_spanner(  # noqa: E731
        g, 3, r, iterations=iters, seed=7, method="csr", kind="edge"
    )
    slow = lambda: fault_tolerant_spanner(  # noqa: E731
        g, 3, r, iterations=iters, seed=7, method="dict", kind="edge"
    )
    a, b = fast(), slow()
    assert _edge_set(a.spanner) == _edge_set(b.spanner)
    assert a.stats.survivor_sizes == b.stats.survivor_sizes
    return _pair_row(
        "theorem21_edge_loop", g, fast, slow,
        {"p": p, "r": r, "iterations": iters}, fast_repeats=2,
    )


def forked_sweeps_available() -> bool:
    """Whether the supervisor would fork its shard children here."""
    from repro.sched.worker import _start_method

    return _start_method() == "fork"


def _lp_sweep_hosts(hosts: int, n: int, p: float) -> dict:
    """lp-sweep's host table: seeded G(n, p) digraphs, arc costs in [1, 10]."""
    from repro import HostSpec

    return {
        f"g{h}": HostSpec(
            "gnp-digraph",
            params={"n": n, "p": p, "cost_range": [1.0, 10.0]}, seed=h,
        )
        for h in range(hosts)
    }


def bench_sweep_lp_plan(hosts: int = 24, n: int = 30, p: float = 0.2) -> dict:
    """An ft2-approx plan through ``run_sweep(workers=2)``: forked vs spawned.

    ``hosts`` seeded cost-weighted G(n, p) digraphs, stretch 2,
    r ∈ {1, 2}: the shape and size of lp-sweep's plan. The spawned side
    parks a second thread for the duration of the call, which is what
    makes the supervisor spawn; no parameter selects the start method.
    Both sides' reports (spanners included) are asserted equal first.
    ``n`` and ``m`` of the row are the first host's.
    """
    import threading

    from repro import run_sweep
    from repro.sweep import emit_grid_plan

    table = _lp_sweep_hosts(hosts, n, p)
    plan = emit_grid_plan(
        ["ft2-approx"], [2], [1, 2], hosts=table, seeds=1, seed_base=5,
        name="bench-lp",
    )

    def forked():
        return run_sweep(plan, workers=2, include_spanner=True)

    def spawned():
        release = threading.Event()
        parked = threading.Thread(target=release.wait, daemon=True)
        parked.start()
        try:
            return run_sweep(plan, workers=2, include_spanner=True)
        finally:
            release.set()
            parked.join()

    docs = [report.to_dict() for report in forked()]
    assert docs == [report.to_dict() for report in spawned()]
    return _pair_row(
        "sweep_lp_plan", table["g0"].materialize(), forked, spawned,
        {"p": p, "hosts": hosts, "specs": len(plan), "r": [1, 2],
         "workers": 2},
        fast_key="fork_seconds", slow_key="spawn_seconds",
    )


def lp_binding_available() -> bool:
    """Whether SciPy's compiled HiGHS binding imports here."""
    from repro.lp.scipy_backend import highs_binding

    return highs_binding() is not None


def bench_lp_highs_binding(hosts: int = 24, n: int = 30, p: float = 0.2) -> dict:
    """lp-sweep's plan in process: the HiGHS binding vs ``linprog``.

    The plan of :func:`bench_sweep_lp_plan`, run by ``run_sweep(plan,
    workers=1)``. The ``linprog`` side hides the binding module for the
    duration of the call (``sys.modules`` maps its name to ``None``, so
    importing it fails, as on a SciPy without it); no library option
    selects the path. Both sides' reports (spanners included) are
    asserted equal first.
    """
    import sys

    from repro import run_sweep
    from repro.sweep import emit_grid_plan

    binding = "scipy.optimize._highspy._core"
    table = _lp_sweep_hosts(hosts, n, p)
    plan = emit_grid_plan(
        ["ft2-approx"], [2], [1, 2], hosts=table, seeds=1, seed_base=5,
        name="bench-lp",
    )

    def with_binding():
        return run_sweep(plan, workers=1, include_spanner=True)

    def with_linprog():
        loaded = sys.modules[binding]
        sys.modules[binding] = None
        try:
            return run_sweep(plan, workers=1, include_spanner=True)
        finally:
            sys.modules[binding] = loaded

    docs = [report.to_dict() for report in with_binding()]
    assert docs == [report.to_dict() for report in with_linprog()]
    return _pair_row(
        "lp_highs_binding", table["g0"].materialize(), with_binding,
        with_linprog,
        {"p": p, "hosts": hosts, "specs": len(plan), "r": [1, 2],
         "workers": 1},
        fast_repeats=2, fast_key="binding_seconds", slow_key="linprog_seconds",
    )


def bench_lp_presolve(hosts: int = 24, n: int = 30, p: float = 0.2) -> dict:
    """LP (4) on lp-sweep's hosts: the Lemma 3.1 presolve vs the full model.

    The host table of :func:`bench_sweep_lp_plan`, each host at
    r ∈ {1, 2}. The fast side is ``solve_ft2_lp(g, r)``; the reference
    side is row generation over ``build_ft2_lp(g, r)`` (LP (3), no arc
    fixed) with ``knapsack_cover_oracle``. The two objectives are
    asserted equal to a relative 1e-9 first. ``n`` and ``m`` of the row
    are the first host's.
    """
    import math

    from repro.lp import solve_with_cuts
    from repro.two_spanner import build_ft2_lp, knapsack_cover_oracle, solve_ft2_lp

    graphs = [spec.materialize() for spec in _lp_sweep_hosts(hosts, n, p).values()]
    cases = [(graph, r) for graph in graphs for r in (1, 2)]

    def presolved():
        return [solve_ft2_lp(graph, r).objective for graph, r in cases]

    def full_model():
        objectives = []
        for graph, r in cases:
            model = build_ft2_lp(graph, r)
            result = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])
            objectives.append(result.solution.objective)
        return objectives

    for fast, slow in zip(presolved(), full_model()):
        assert math.isclose(fast, slow, rel_tol=1e-9), (fast, slow)
    return _pair_row(
        "lp_presolve", graphs[0], presolved, full_model,
        {"p": p, "hosts": hosts, "r": [1, 2]},
        fast_key="presolve_seconds", slow_key="full_model_seconds",
    )


def bench_serve_startup(n: int = 10_000) -> dict:
    """A service's Lemma 3.1 start-up: bulk state vs two update passes.

    serve-mixed's host shape, a Barabási–Albert (m = 5) host at r = 1.
    The fast side is :func:`repro.serve.stream_ft2_spanner` then
    ``IncrementalFT2Verifier(host, 1, spanner)``. The reference side is
    the start-up as two passes of O(Δ) ``add_edge`` updates, in public
    calls only: the stream's edges decided by a growing verifier, then
    a second verifier grown over the spanner's edges. The two edge lists
    and the two ``unsatisfied()`` lists are asserted equal first.
    """
    from repro.graph import barabasi_albert_graph
    from repro.serve import stream_ft2_spanner

    r = 1
    host = barabasi_albert_graph(n, 5, seed=3)

    def two_passes():
        decider = IncrementalFT2Verifier(host, r)
        bought = []
        for u, v, _w in host.edges():
            if not decider.has_edge(u, v) and decider.count_two_paths(u, v) < r + 1:
                decider.add_edge(u, v)
                bought.append((u, v))
        spanner = host.edge_subgraph(bought)
        verifier = IncrementalFT2Verifier(host, r)
        for u, v, _w in spanner.edges():
            verifier.add_edge(u, v)
        return spanner, verifier

    def bulk():
        spanner = stream_ft2_spanner(host, r)
        return spanner, IncrementalFT2Verifier(host, r, spanner)

    (slow_spanner, slow_verifier), (spanner, verifier) = two_passes(), bulk()
    assert spanner.edge_list() == slow_spanner.edge_list()
    assert verifier.unsatisfied() == slow_verifier.unsatisfied()
    return _pair_row(
        "serve_startup", host, bulk, two_passes,
        {"host": "barabasi_albert(m=5)", "r": r,
         "spanner_edges": spanner.num_edges},
        fast_key="bulk_seconds", slow_key="two_pass_seconds",
    )


def run_benchmarks() -> list:
    from repro.compiled import compiled_available, compiled_unavailable_reason

    rows = [
        bench_greedy(),
        bench_conversion(),
        bench_verifier(200),
        bench_verifier(400),
        bench_thorup_zwick(),
        bench_baswana_sen(),
        bench_distance_oracle(),
        bench_clpr(),
        bench_decomposition(),
        bench_edge_conversion(),
        bench_lp_presolve(),
        bench_serve_startup(),
    ]
    if forked_sweeps_available():
        rows.append(bench_sweep_lp_plan())
    else:
        print(
            "note: shard children are not forked here; skipping "
            "sweep_lp_plan — do not commit a baseline from this run"
        )
    if lp_binding_available():
        rows.append(bench_lp_highs_binding())
    else:
        print(
            "note: this SciPy has no compiled HiGHS binding; skipping "
            "lp_highs_binding — do not commit a baseline from this run"
        )
    if compiled_available():
        rows.append(bench_greedy_compiled())
        rows.append(bench_theorem21_compiled())
        rows.append(bench_fault_check_compiled())
        rows.append(bench_serve_query_compiled())
    else:
        print(
            "note: compiled backend unavailable "
            f"({compiled_unavailable_reason()}); skipping greedy_compiled, "
            "theorem21_compiled, fault_check_compiled and "
            "serve_query_compiled "
            "— do not commit a baseline from this run"
        )
    payload = {
        "description": "CSR fast-path kernels vs dict implementations",
        "benchmarks": rows,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return rows


def _seconds(row, *keys) -> float:
    return next(row[key] for key in keys if key in row)


def _report(rows) -> None:
    from repro.analysis import print_table

    print_table(
        ["benchmark", "n", "m", "reference s", "kernel s", "speedup"],
        [
            [
                row["name"], row["n"], row["m"],
                round(_seconds(row, "dict_seconds", "spawn_seconds",
                               "linprog_seconds", "full_model_seconds",
                               "two_pass_seconds", "csr_seconds"), 4),
                round(_seconds(row, "compiled_seconds", "fork_seconds",
                               "binding_seconds", "presolve_seconds",
                               "bulk_seconds", "csr_seconds"), 4),
                round(row["speedup"], 1),
            ]
            for row in rows
        ],
        title="Perf: kernel tiers (CSR / compiled) vs their references",
    )


def _assert_headline(rows) -> None:
    by_name = {row["name"]: row for row in rows}
    assert by_name["greedy_spanner"]["speedup"] >= MIN_HEADLINE_SPEEDUP
    assert by_name["conversion_loop"]["speedup"] >= MIN_HEADLINE_SPEEDUP
    # The incremental verifier must beat the recount loop decisively too.
    assert by_name["lemma31_verifier_n400"]["incremental_speedup"] >= MIN_HEADLINE_SPEEDUP
    # PR 2 headline kernels: the clustering spanners at n = 400.
    assert by_name["thorup_zwick"]["speedup"] >= MIN_HEADLINE_SPEEDUP
    assert by_name["baswana_sen"]["speedup"] >= MIN_HEADLINE_SPEEDUP
    # Zero-copy survivor masks: the edge-fault conversion loop must
    # beat the materialized-subgraph reference by 3x at full size.
    assert by_name["theorem21_edge_loop"]["speedup"] >= 3.0
    # The remaining rewired paths must at least never lose to dict.
    for name in ("tz_distance_oracle", "clpr_baseline", "padded_decomposition"):
        assert by_name[name]["speedup"] >= 1.0
    # Forked shard children skip the interpreter start and `import repro`
    # that spawned ones pay, on lp-sweep's plan, where they fork.
    if "sweep_lp_plan" in by_name:
        assert by_name["sweep_lp_plan"]["speedup"] >= MIN_FORKED_SWEEP_SPEEDUP
    # LP rounds through the HiGHS binding skip linprog's front end.
    if "lp_highs_binding" in by_name:
        assert by_name["lp_highs_binding"]["speedup"] >= MIN_LP_BINDING_SPEEDUP
    # LP (4) with the forced arcs fixed skips their cut rounds.
    assert by_name["lp_presolve"]["speedup"] >= MIN_LP_PRESOLVE_SPEEDUP
    # A service builds its Lemma 3.1 state once, in bulk.
    assert by_name["serve_startup"]["speedup"] >= MIN_SERVE_STARTUP_SPEEDUP
    # PR 10: the compiled tier, when the backend loaded. The greedy
    # Dijkstra must beat dict by 3x at n = 400 (the acceptance
    # criterion).
    if "greedy_compiled" in by_name:
        assert by_name["greedy_compiled"]["speedup"] >= MIN_COMPILED_GREEDY_SPEEDUP
        # Whole Theorem 2.1 runs: the threaded batch over the csr loop.
        assert (
            by_name["theorem21_compiled"]["speedup"]
            >= MIN_COMPILED_THEOREM21_SPEEDUP
        )
        # The compiled fault-set check at verify-sampled's size.
        assert (
            by_name["fault_check_compiled"]["speedup"]
            >= MIN_COMPILED_FAULT_CHECK_SPEEDUP
        )
        # Service replays with compiled distance reads at n = 10^4.
        assert (
            by_name["serve_query_compiled"]["speedup"]
            >= MIN_COMPILED_SERVE_QUERY_SPEEDUP
        )


def test_perf_kernels(benchmark):
    from conftest import run_once

    rows = run_once(benchmark, run_benchmarks)
    _report(rows)
    _assert_headline(rows)


if __name__ == "__main__":
    result_rows = run_benchmarks()
    _report(result_rows)
    _assert_headline(result_rows)
    print(f"wrote {RESULT_PATH}")
