"""The compiled (C backend) dispatch tier: equivalence and fallback.

The contract mirrors the CSR tier's (``tests/test_algorithms_csr.py``)
but is stricter where it can be: the compiled greedy kernel replays the
indexed kernel's float operations exactly, so chosen edge-id lists are
pinned *identical* — not merely equal as sets.

Fallback behaviour is tested in subprocesses with
``REPRO_DISABLE_COMPILED=1``: ``method="auto"`` must silently serve the
interpreted tiers, and ``method="compiled"`` must raise
:class:`repro.errors.CompiledBackendUnavailable` with an actionable
message. Those tests run everywhere — including the CI leg that has no
backend at all.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.compiled import ENV_DISABLE, compiled_available, compiled_unavailable_reason
from repro.core import (
    fault_sets,
    first_violating_fault_set,
    is_fault_tolerant_spanner,
    sampled_fault_check,
)
from repro.core.conversion import fault_tolerant_spanner
from repro.core.verify import _compiled_check, _spanner_holds_after_faults
from repro.graph import (
    BaseGraph,
    Graph,
    complete_graph,
    connected_gnp_graph,
    csr_snapshot,
    gnp_random_digraph,
    gnp_random_graph,
)
from repro.graph.csr import resolve_method
from repro.graph.scenario import FaultScenario
from repro.spanners import greedy_spanner

needs_backend = pytest.mark.skipif(
    not compiled_available(),
    reason=f"compiled backend unavailable: {compiled_unavailable_reason()}",
)


def edge_set(graph):
    return sorted(map(tuple, graph.edges()))


def weighted(seed, n=55, p=0.18):
    return gnp_random_graph(n, p, seed=seed, weight_range=(0.5, 3.0))


def unit(seed, n=50, p=0.15):
    return connected_gnp_graph(n, p, seed=seed)


# ---------------------------------------------------------------------------
# Greedy: compiled vs dict (the pinned reference)
# ---------------------------------------------------------------------------


@needs_backend
class TestGreedyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.sampled_from([1.5, 3.0, 5.0]))
    def test_weighted_matches_dict(self, seed, k):
        graph = weighted(seed)
        fast = greedy_spanner(graph, k, method="compiled")
        slow = greedy_spanner(graph, k, method="dict")
        assert edge_set(fast) == edge_set(slow)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.sampled_from([3.0, 5.0]))
    def test_unweighted_matches_dict(self, seed, k):
        graph = unit(seed)
        fast = greedy_spanner(graph, k, method="compiled")
        slow = greedy_spanner(graph, k, method="dict")
        assert edge_set(fast) == edge_set(slow)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_indexed_and_compiled_pick_identical_ids(self, seed):
        """Stronger than edge-set equality: identical pick order."""
        from repro.compiled.greedy import CompiledGreedyKernel
        from repro.spanners.greedy import IndexedGreedyKernel

        graph = weighted(seed, n=40)
        csr = csr_snapshot(graph)
        ids = sorted(range(len(csr.edge_w)), key=csr.edge_w.__getitem__)
        args = (ids, csr.edge_u, csr.edge_v, csr.edge_w, 3.0)
        py = IndexedGreedyKernel(csr.num_vertices, csr.directed)
        cc = CompiledGreedyKernel(csr.num_vertices, csr.directed)
        assert cc.run_edge_ids(*args) == py.run_edge_ids(*args)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000), p_alive=st.sampled_from([0.3, 0.6, 0.9]))
    def test_masked_survivor_view_matches_indexed(self, seed, p_alive):
        """SurvivorView iterations feed pre-filtered ids to the kernel —
        the compiled path must pick the same ids on every mask."""
        import random

        from repro.compiled.greedy import CompiledGreedyKernel
        from repro.spanners.greedy import IndexedGreedyKernel

        graph = weighted(seed, n=45)
        csr = csr_snapshot(graph)
        ids = np.asarray(
            sorted(range(len(csr.edge_w)), key=csr.edge_w.__getitem__),
            dtype=np.int64,
        )
        rng = random.Random(seed)
        py = IndexedGreedyKernel(csr.num_vertices, csr.directed)
        cc = CompiledGreedyKernel(csr.num_vertices, csr.directed)
        for _ in range(4):
            alive = [rng.random() < p_alive for _ in csr.verts]
            surviving = csr.survivor_view(alive).filter_edge_ids(ids)
            args = (surviving, csr.edge_u, csr.edge_v, csr.edge_w, 3.0)
            assert cc.run_edge_ids(*args) == py.run_edge_ids(*args)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2000), r=st.sampled_from([1, 2]))
    def test_conversion_matches_dict_pipeline(self, seed, r):
        """Same seed, same RNG stream, same union spanner end-to-end."""
        graph = weighted(seed, n=40)
        fast = fault_tolerant_spanner(
            graph, 3.0, r, seed=seed, iterations=10, method="compiled"
        )
        slow = fault_tolerant_spanner(
            graph, 3.0, r, seed=seed, iterations=10, method="dict"
        )
        assert edge_set(fast.spanner) == edge_set(slow.spanner)
        assert fast.stats.survivor_sizes == slow.stats.survivor_sizes

    def test_edge_fault_scenarios_match_dict_pipeline(self):
        graph = weighted(11, n=40)
        scenarios = [
            FaultScenario.edge([(u, v)])
            for u, v, _w in list(graph.edges())[:6]
        ]
        fast = fault_tolerant_spanner(
            graph, 3.0, 1, scenarios=scenarios, method="compiled", kind="edge"
        )
        slow = fault_tolerant_spanner(
            graph, 3.0, 1, scenarios=scenarios, method="dict", kind="edge"
        )
        assert edge_set(fast.spanner) == edge_set(slow.spanner)


# ---------------------------------------------------------------------------
# Theorem 2.1 batches: one C call vs the interpreted loop and dict
# ---------------------------------------------------------------------------


def _matching_arrays(count):
    """Edge arrays of a perfect matching: greedy keeps every survivor."""
    u = np.arange(0, 2 * count, 2, dtype=np.int64)
    return (
        np.arange(count, dtype=np.int64), u, u + 1, np.ones(count),
    )


def _c_draws_below(seed, p, count):
    """Bit ``i``: draw ``i`` of the C batch's MT19937 for ``seed`` is below ``p``.

    One edge-fault iteration on a perfect matching keeps exactly the edges
    whose draw is below ``p``, so the union mask is the survivor mask.
    """
    from repro.compiled.oversample import oversample

    ids, u, v, w = _matching_arrays(count)
    union = np.zeros(count, dtype=np.uint8)
    oversample(2 * count, False, "edge", ids, u, v, w, 1.0, p, union, seeds=[seed])
    return union.astype(bool)


def _conversion_run(driver, graph, k, r, method, seed=3):
    from repro.core.conversion import fault_tolerant_spanner_until_valid

    if driver == "vertex":
        return fault_tolerant_spanner(
            graph, k, r, iterations=12, seed=seed, method=method
        )
    if driver == "edge":
        return fault_tolerant_spanner(
            graph, k, r, iterations=12, seed=seed, method=method, kind="edge"
        )
    return fault_tolerant_spanner_until_valid(
        graph, k, r,
        lambda h: sampled_fault_check(h, graph, k, r, trials=6, seed=seed),
        batch=3, max_iterations=300, seed=seed, method=method,
    )


def _outputs(result):
    stats = result.stats
    return (
        list(result.spanner.edges()), stats.iterations, stats.survivor_sizes,
        stats.iteration_edge_counts, stats.union_edge_counts,
    )


def _batch_hosts():
    return [
        gnp_random_graph(40, 0.2, seed=5, weight_range=(1.0, 10.0)),
        connected_gnp_graph(40, 0.2, seed=5),
        gnp_random_digraph(36, 0.2, seed=5),
    ]


@needs_backend
class TestTheorem21Batch:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def test_mt19937_matches_random_random(self):
        """Each checked C draw equals ``random.Random(seed).random()`` exactly.

        At threshold ``x`` (the Python draw) the C draw is not below it,
        and at the next double up it is, so the two doubles are equal; the
        whole masks must also order every other draw like Python's.
        1,300 draws cross two MT19937 state refills.
        """
        count = 1300
        seeds = self.SEEDS + [random.Random(99).getrandbits(64) for _ in range(12)]
        for seed in seeds:
            stream = random.Random(seed)
            xs = np.array([stream.random() for _ in range(count)])
            picks = [0, 1, 311, 312, 313, 623, 624, 1299]
            picks += random.Random(seed % 1000).sample(range(count), 8)
            for j in picks:
                for p in (xs[j], np.nextafter(xs[j], 2.0)):
                    assert (_c_draws_below(seed, p, count) == (xs < p)).all()
        # Long streams, one threshold each.
        for seed in (0, 2**64 - 1, 12345678901234567):
            stream = random.Random(seed)
            xs = np.array([stream.random() for _ in range(100_000)])
            assert (_c_draws_below(seed, 0.5, 100_000) == (xs < 0.5)).all()

    @pytest.mark.parametrize("driver", ["vertex", "edge"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_batch_matches_csr_and_dict(self, driver, r, k):
        for graph in _batch_hosts():
            batch = _outputs(_conversion_run(driver, graph, k, r, "compiled"))
            assert batch == _outputs(_conversion_run(driver, graph, k, r, "csr"))
            ref = _outputs(_conversion_run(driver, graph, k, r, "dict"))
            assert sorted(batch[0]) == sorted(ref[0])
            assert batch[1:] == ref[1:]

    @pytest.mark.parametrize("r", [1, 2])
    def test_adaptive_batches_match_csr_and_dict(self, r):
        """One call per batch; new edges join the union in pick order."""
        for graph in _batch_hosts():
            batch = _outputs(_conversion_run("adaptive", graph, 3, r, "compiled"))
            assert batch == _outputs(_conversion_run("adaptive", graph, 3, r, "csr"))
            ref = _outputs(_conversion_run("adaptive", graph, 3, r, "dict"))
            assert sorted(batch[0]) == sorted(ref[0])
            assert batch[1:] == ref[1:]

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_replayed_scenarios_match_csr_and_dict(self, kind):
        for graph in _batch_hosts():
            rng = random.Random(4)
            vertices = list(graph.vertices())
            edges = [(u, v) for u, v, _w in graph.edges()]
            if kind == "vertex":
                scenarios = [FaultScenario.vertex(rng.sample(vertices, 12))
                             for _ in range(5)] + [FaultScenario.none()]
            else:
                scenarios = [FaultScenario.edge(rng.sample(edges, 40))
                             for _ in range(5)] + [FaultScenario.none()]
            runs = {
                method: _outputs(fault_tolerant_spanner(
                    graph, 3.0, 2, scenarios=scenarios, method=method,
                    kind=kind,
                ))
                for method in ("compiled", "csr", "dict")
            }
            assert runs["compiled"] == runs["csr"]
            assert sorted(runs["compiled"][0]) == sorted(runs["dict"][0])
            assert runs["compiled"][1:] == runs["dict"][1:]

    def test_outputs_do_not_depend_on_the_thread_count(self, monkeypatch):
        """1, 2, 3 and 7 threads (more than the cores) give equal outputs.

        The thread count comes from the CPU-count lookup, patched here.
        The builds run in a daemon thread joined with a timeout, so a
        deadlock fails the test instead of hanging it.
        """
        import threading

        from repro.compiled import oversample as module

        host = gnp_random_graph(300, 0.05, seed=2, weight_range=(1.0, 10.0))
        digraph = gnp_random_digraph(120, 0.08, seed=2)
        ids, u, v, w = _matching_arrays(50)
        outputs = {}

        def build_all(threads):
            monkeypatch.setattr(module, "usable_cpus", lambda: threads)
            got = [
                _outputs(fault_tolerant_spanner(host, 3.0, 2, iterations=40, seed=1)),
                _outputs(fault_tolerant_spanner(host, 3.0, 2, iterations=40, seed=1,
                                                kind="edge")),
                _outputs(fault_tolerant_spanner(digraph, 3.0, 1, iterations=40, seed=1)),
                _outputs(_conversion_run("adaptive", digraph, 3.0, 1, "auto")),
            ]
            union = np.zeros(50, dtype=np.uint8)
            union[::7] = 1  # edges held before the call report -1
            result = module.oversample(
                100, False, "edge", ids, u, v, w, 1.0, 0.3, union,
                seeds=range(1, 31),
            )
            got.append([union.tolist()] + [np.asarray(x).tolist() for x in result])
            outputs[threads] = got

        for threads in (1, 2, 3, 7):
            worker = threading.Thread(target=build_all, args=(threads,), daemon=True)
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive(), f"{threads} threads did not finish"
            assert threads in outputs
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]
        assert outputs[7] == outputs[1]

    def test_no_per_iteration_kernel_call(self, monkeypatch):
        """The compiled tier runs whole batches: the per-pass kernel never runs."""
        from repro.compiled.greedy import CompiledGreedyKernel
        from repro.spanners.greedy import IndexedGreedyKernel

        graph = gnp_random_graph(60, 0.15, seed=8, weight_range=(1.0, 10.0))
        expected = [_outputs(_conversion_run(d, graph, 3.0, 1, "auto"))
                    for d in ("vertex", "edge", "adaptive")]

        def refuse(*_args, **_kwargs):
            raise AssertionError("a per-iteration greedy kernel ran")

        monkeypatch.setattr(CompiledGreedyKernel, "run_edge_ids", refuse)
        monkeypatch.setattr(IndexedGreedyKernel, "run_edge_ids", refuse)
        for driver, want in zip(("vertex", "edge", "adaptive"), expected):
            assert _outputs(_conversion_run(driver, graph, 3.0, 1, "auto")) == want

    def test_oversample_validates_its_arrays(self):
        from repro.compiled.oversample import oversample

        ids, u, v, w = _matching_arrays(4)
        union = np.zeros(4, dtype=np.uint8)
        args = (8, False, "vertex", ids, u, v, w, 3.0, 0.5)
        first = oversample(*args, union, seeds=[7, 8])[-1]
        assert first.shape == (4,) and union.sum() == (first >= 0).sum()
        with pytest.raises(ValueError, match="uint8"):
            oversample(*args, np.zeros(4, dtype=bool), seeds=[7])
        with pytest.raises(ValueError, match="length"):
            oversample(*args, np.zeros(5, dtype=np.uint8), seeds=[7])
        with pytest.raises(ValueError, match="range"):
            oversample(8, False, "vertex", ids, u + 1, v + 1, w, 3.0, 0.5,
                       union, seeds=[7])
        with pytest.raises(ValueError, match="permutation"):
            oversample(8, False, "vertex", np.zeros(4, dtype=np.int64), u, v, w,
                       3.0, 0.5, union, seeds=[7])
        with pytest.raises(ValueError, match="exactly one"):
            oversample(*args, union)
        with pytest.raises(ValueError, match="shape"):
            oversample(*args, union, masks=np.ones((2, 4), dtype=bool))
        with pytest.raises(ValueError, match="kind"):
            oversample(8, False, "arc", ids, u, v, w, 3.0, 0.5, union, seeds=[7])


# ---------------------------------------------------------------------------
# Fault-set verifier: compiled per-edge check vs the dict reference
# ---------------------------------------------------------------------------


@needs_backend
class TestFaultCheckEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 60),
        p=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
        weights=st.sampled_from([None, (1.0, 10.0)]),
        k=st.sampled_from([1, 1.5, 2, 3]),
        drop=st.integers(0, 5),
        lose_vertex=st.booleans(),
    )
    def test_verdicts_match_dict_reference(
        self, seed, n, p, weights, k, drop, lose_vertex
    ):
        rng = random.Random(seed)
        host = gnp_random_graph(n, p, seed=seed, weight_range=weights)
        spanner = greedy_spanner(host, k)
        kept = [(u, v) for u, v, _w in spanner.edges()]
        for u, v in rng.sample(kept, min(drop, len(kept))):
            spanner.remove_edge(u, v)
        if lose_vertex:
            spanner.remove_vertex(rng.choice(list(spanner.vertices())))
        check = _compiled_check(spanner, host, k)
        assert check is not None
        vertices = list(host.vertices())
        host_edges = [(u, v) for u, v, _w in host.edges()]
        for _ in range(4):
            faults = rng.sample(vertices, rng.randint(0, min(3, n)))
            assert check.vertex_faults(faults) == _spanner_holds_after_faults(
                spanner, host, k, faults
            )
            cut = rng.sample(host_edges, rng.randint(0, min(3, len(host_edges))))
            assert check.edge_faults(cut) == _spanner_holds_after_faults(
                spanner, host, k, cut, kind="edge"
            )

    @pytest.mark.parametrize("missing", [0, 3])
    def test_spanner_missing_a_host_vertex_matches(self, missing):
        host = complete_graph(4)
        spanner = host.copy()
        spanner.remove_vertex(missing)
        check = _compiled_check(spanner, host, 3)
        for faults in fault_sets(list(host.vertices()), 2):
            assert check.vertex_faults(faults) == _spanner_holds_after_faults(
                spanner, host, 3, faults
            )
        assert not check.vertex_faults(())
        assert check.vertex_faults((missing,))
        assert not check.edge_faults(())

    def test_dropping_a_necessary_edge_is_rejected_by_both_paths(self):
        host = connected_gnp_graph(16, 0.35, seed=3)
        spanner = fault_tolerant_spanner(host, 3.0, 1, seed=4).spanner
        assert is_fault_tolerant_spanner(spanner, host, 3.0, 1)
        # The first spanner edge whose loss only a nonempty fault set exposes.
        for u, v, _w in spanner.edges():
            mutant = spanner.copy()
            mutant.remove_edge(u, v)
            witness = first_violating_fault_set(mutant, host, 3.0, 1)
            if witness:
                break
        else:
            pytest.fail("no edge of the spanner is needed under a fault")
        assert not _compiled_check(mutant, host, 3.0).vertex_faults(witness)
        assert not _spanner_holds_after_faults(mutant, host, 3.0, witness)
        assert _compiled_check(spanner, host, 3.0).vertex_faults(witness)
        assert _spanner_holds_after_faults(spanner, host, 3.0, witness)

    def test_verifiers_engage_the_compiled_check(self, monkeypatch):
        """With the backend loaded, no fault set reaches the dict reference."""
        from repro.core import verify

        host = gnp_random_graph(60, 0.15, seed=8, weight_range=(1.0, 10.0))
        spanner = fault_tolerant_spanner(host, 3.0, 1, seed=2).spanner

        def refuse(*_args, **_kwargs):
            raise AssertionError("the dict reference ran")

        monkeypatch.setattr(BaseGraph, "without_vertices", refuse)
        monkeypatch.setattr(verify, "_without_edges", refuse)
        assert sampled_fault_check(spanner, host, 3.0, 1, trials=30, seed=1)
        assert sampled_fault_check(
            spanner, host, 3.0, 1, trials=30, seed=1, kind="edge"
        )

    def test_pairs_within_contract(self):
        from repro.compiled.pairs import pairs_within

        # Path 0 - 1 - 2 with unit weights, as a half-edge CSR.
        indptr, nbr = [0, 1, 3, 4], [1, 0, 2, 1]
        wt = np.ones(4)
        got = pairs_within(indptr, nbr, wt, [0, 0, 2], [2, 2, 2], [2.0, 1.5, 0.0])
        assert got.tolist() == [True, False, True]
        # Faulting vertex 1 masks every half-edge at it, in both directions.
        dead = np.full(4, np.inf)
        assert pairs_within(indptr, nbr, dead, [0], [2], [1e9]).tolist() == [False]
        with pytest.raises(ValueError):
            pairs_within(indptr, nbr, wt, [0], [3], [1.0])
        with pytest.raises(ValueError):
            pairs_within([0, 3, 1, 4], nbr, wt, [0], [2], [1.0])

    def test_digraphs_keep_the_dict_reference(self):
        host = gnp_random_digraph(12, 0.4, seed=1)
        assert _compiled_check(host, host, 3.0) is None


# ---------------------------------------------------------------------------
# Dispatch surface: resolve_method, errors, no-backend fallback
# ---------------------------------------------------------------------------


class TestDispatchSurface:
    def test_resolve_method_error_names_all_four_tiers(self):
        with pytest.raises(ValueError) as err:
            resolve_method("fast", 100)
        message = str(err.value)
        for tier in ("auto", "csr", "dict", "compiled"):
            assert tier in message

    def test_compiled_requires_a_compiled_path(self):
        with pytest.raises(ValueError, match="no compiled kernel"):
            resolve_method("compiled", 100, compiled_path=False)

    @needs_backend
    def test_auto_prefers_compiled_only_with_a_compiled_path(self):
        assert resolve_method("auto", 100, compiled_path=True) == "compiled"
        assert resolve_method("auto", 100, compiled_path=False) == "csr"
        assert resolve_method("auto", 10, compiled_path=True) == "dict"

    @needs_backend
    def test_undirected_only_pipelines_reject_compiled_on_digraphs(self):
        with pytest.raises(ValueError, match="undirected-only"):
            resolve_method(
                "compiled", 100, directed=True, directed_csr=False,
                compiled_path=True,
            )

    @needs_backend
    def test_available_backend_reports_no_reason(self):
        assert compiled_unavailable_reason() is None

    def test_library_name_keys_the_compiler_flags(self, monkeypatch):
        """A cached library built with other flags is never loaded."""
        from repro import compiled

        key = compiled._source_key()
        monkeypatch.setattr(compiled, "_CFLAGS", [*compiled._CFLAGS, "-DREPRO_X"])
        assert compiled._source_key() != key
        monkeypatch.setattr(
            compiled, "_CFLAGS",
            [f for f in compiled._CFLAGS if f not in ("-ffp-contract=off", "-DREPRO_X")],
        )
        assert compiled._source_key() != key


def _run_in_subprocess(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with the backend disabled."""
    env = dict(os.environ)
    env[ENV_DISABLE] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestNoBackendFallback:
    def test_auto_falls_back_silently(self):
        proc = _run_in_subprocess(
            "from repro.compiled import compiled_available\n"
            "assert not compiled_available()\n"
            "from repro.graph import connected_gnp_graph\n"
            "from repro.spanners import greedy_spanner\n"
            "g = connected_gnp_graph(30, 0.2, seed=1)\n"
            "s = greedy_spanner(g, 3.0, method='auto')\n"
            "assert s.num_edges > 0\n"
            "from repro.core import sampled_fault_check\n"
            "from repro.core.verify import _compiled_check\n"
            "assert _compiled_check(s, g, 3.0) is None\n"
            "assert sampled_fault_check(g, g, 3.0, 1, trials=3, seed=0)\n"
            "print('fallback-ok')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout

    def test_explicit_compiled_raises_actionable_error(self):
        proc = _run_in_subprocess(
            "from repro.errors import CompiledBackendUnavailable\n"
            "from repro.graph import connected_gnp_graph\n"
            "from repro.spanners import greedy_spanner\n"
            "g = connected_gnp_graph(30, 0.2, seed=1)\n"
            "try:\n"
            "    greedy_spanner(g, 3.0, method='compiled')\n"
            "except CompiledBackendUnavailable as exc:\n"
            "    assert 'REPRO_DISABLE_COMPILED' in str(exc)\n"
            "    assert 'auto' in str(exc)\n"
            "    print('raise-ok')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "raise-ok" in proc.stdout

    def test_session_auto_resolves_interpreted_tiers(self):
        proc = _run_in_subprocess(
            "from repro.graph import complete_graph\n"
            "from repro.session import Session\n"
            "from repro.spec import SpannerSpec\n"
            "report = Session().build(\n"
            "    SpannerSpec('greedy', stretch=3), graph=complete_graph(10))\n"
            "assert report.resolved_method == 'csr', report.resolved_method\n"
            "print('session-ok')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "session-ok" in proc.stdout
