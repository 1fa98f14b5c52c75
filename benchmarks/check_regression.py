"""Opt-in perf-regression gate for the CSR kernel layer.

Re-runs every kernel-vs-dict benchmark pair from
:mod:`bench_perf_kernels` at *smoke* sizes (seconds, not minutes) and
fails if any kernel has stopped beating its dict reference — i.e. if any
measured speedup falls below 1.0x — or if a kernel named in the committed
``BENCH_perf_kernels.json`` baseline has disappeared from the suite.

This is deliberately a coarse gate: absolute speedups at smoke sizes are
noisy and smaller than the committed full-size numbers, so the check only
asserts the *sign* of the win. The committed baseline remains the
trajectory record; refresh it with ``python benchmarks/bench_perf_kernels.py``.

Opt-in by design so tier-1 stays fast:

* pytest: ``pytest benchmarks/check_regression.py -m perf_regression``
  (the ``perf_regression`` marker is registered in ``conftest.py``; the
  file is only collected when named explicitly, like every benchmark);
* standalone: ``python benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import os

import pytest

import bench_perf_kernels as bench

pytestmark = pytest.mark.perf_regression

#: Smoke floor: every kernel must still beat its dict reference.
MIN_SMOKE_SPEEDUP = 1.0

#: Benchmark names that need the optional C backend (:mod:`repro.compiled`).
_COMPILED_PAIRS = frozenset(
    {
        "greedy_compiled",
        "theorem21_compiled",
        "fault_check_compiled",
        "serve_query_compiled",
    }
)


def smoke_rows() -> list:
    """The full benchmark pair set at reduced sizes.

    The compiled-tier pairs run only when the optional C backend loads;
    without it they are excused from the baseline-coverage check (see
    :func:`check`) rather than failed — a machine without a C compiler
    must still be able to run the gate. The forked-vs-spawned sweep pair
    likewise runs, and is required, only where the supervisor forks, and
    the HiGHS-binding pair only where SciPy ships the binding.
    """
    from repro.compiled import compiled_available

    rows = [
        bench.bench_greedy(n=160, p=0.12),
        bench.bench_conversion(n=160, p=0.08, iters=8),
        bench.bench_verifier(160),
        bench.bench_thorup_zwick(n=160),
        bench.bench_baswana_sen(n=160),
        bench.bench_distance_oracle(n=160, p=0.15),
        bench.bench_clpr(n=64),
        bench.bench_decomposition(n=160, p=0.06),
        bench.bench_edge_conversion(n=160, p=0.08, iters=8),
        bench.bench_lp_presolve(hosts=6),
        bench.bench_serve_startup(n=2000),
    ]
    if bench.forked_sweeps_available():
        rows.append(bench.bench_sweep_lp_plan(hosts=6))
    if bench.lp_binding_available():
        rows.append(bench.bench_lp_highs_binding(hosts=6))
    if compiled_available():
        rows.append(bench.bench_greedy_compiled(n=160, p=0.12))
        rows.append(bench.bench_theorem21_compiled(n=400, p=0.03, iterations=8))
        rows.append(bench.bench_fault_check_compiled(n=120, p=0.1, trials=4))
        rows.append(bench.bench_serve_query_compiled(n=1000, num_ops=200))
    return rows


def _committed_names() -> set:
    if not os.path.exists(bench.RESULT_PATH):
        return set()
    with open(bench.RESULT_PATH, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {row["name"] for row in payload.get("benchmarks", [])}


def _smoke_name(name: str) -> str:
    """Committed names carry the full-size n; smoke rows re-derive it."""
    return name.split("_n", 1)[0] if name.startswith("lemma31_verifier") else name


def check(rows=None) -> list:
    rows = rows if rows is not None else smoke_rows()
    failures = [
        row["name"] for row in rows if row["speedup"] < MIN_SMOKE_SPEEDUP
    ]
    assert not failures, (
        f"kernels slower than their dict reference at smoke size: {failures}"
    )
    covered = {_smoke_name(row["name"]) for row in rows}
    missing = {
        name
        for name in map(_smoke_name, _committed_names())
        if name not in covered
    }
    from repro.compiled import compiled_available, compiled_unavailable_reason

    if not compiled_available():
        # The compiled-tier rows in the committed baseline come from a
        # container with a working C toolchain; a backend-less machine
        # cannot re-measure them, so they are excused — visibly — rather
        # than reported as regressions.
        excused = {name for name in missing if name in _COMPILED_PAIRS}
        if excused:
            print(
                f"note: compiled backend unavailable "
                f"({compiled_unavailable_reason()}); skipping "
                f"{sorted(excused)} from the coverage check"
            )
        missing -= excused
    if "sweep_lp_plan" in missing and not bench.forked_sweeps_available():
        # Off Linux, or with a native thread that outlives a fork, both
        # sides of the pair would spawn: there is nothing to measure.
        print(
            "note: shard children are not forked here; skipping "
            "['sweep_lp_plan'] from the coverage check"
        )
        missing.discard("sweep_lp_plan")
    if "lp_highs_binding" in missing and not bench.lp_binding_available():
        # An older SciPy solves through linprog alone: no pair to time.
        print(
            "note: this SciPy has no compiled HiGHS binding; skipping "
            "['lp_highs_binding'] from the coverage check"
        )
        missing.discard("lp_highs_binding")
    assert not missing, (
        f"kernels in the committed baseline but absent from the smoke suite: {missing}"
    )
    return rows


def test_no_kernel_regressions():
    rows = check()
    from repro.analysis import print_table

    print_table(
        ["benchmark", "n", "smoke speedup"],
        [[row["name"], row["n"], round(row["speedup"], 2)] for row in rows],
        title="Perf regression gate (smoke sizes, floor 1.0x)",
    )


if __name__ == "__main__":
    for row in check():
        print(f"{row['name']:24s} n={row['n']:4d} speedup {row['speedup']:.2f}x")
    print("no kernel regressions")
