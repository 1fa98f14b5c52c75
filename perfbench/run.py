#!/usr/bin/env python3
"""End-to-end benchmark of the fault-tolerant spanner library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ft-build --seed 1 --seconds 15 --trace 0

Workloads: ``ft-build``, ``verify-sampled``, ``serve-mixed``, ``lp-sweep``
(``README.md`` beside this file says why each exists). ``--seconds``
fixes the number of timed units (never "as many as fit"), so counts
repeat exactly for a seed. Every unit time is calibrated against the
machine's current speed (``harness.py``). With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` the same measurement is followed by a traced pass whose
per-layer metrics replace them (``tracer.py``), and the spans are
written under ``.bench_build/perfbench/``.

The benchmark reads and writes only inside the checkout: the compiled
backend is built into ``.bench_build/repro-compiled`` and temporary
files go to ``.bench_build/tmp``. Exits 2 without a result when the
library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "ops/s",
    "spanner_edges": "edges",
    "cost_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics that are calibrated times; each has a ``raw.`` twin.
CALIBRATED = ("latency_p50_ms", "latency_tail_ms", "throughput_ops_s", "setup_s")


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric (``BENCHMARK.json`` lists them)."""
    from repro.serve.workload import OP_TYPES

    return {
        "compiled.greedy_s": "s",
        "compiled.greedy_calls": "count",
        "compiled.edges_in": "count",
        "compiled.edges_kept": "count",
        "core.conversion.glue_s": "s",
        "core.conversion.iterations": "count",
        "core.conversion.survivors": "count",
        "graph.csr.snapshot_s": "s",
        "graph.csr.snapshot_builds": "count",
        "graph.csr.snapshot_hit_rate": "ratio",
        "graph.csr.mask_s": "s",
        "graph.paths.dijkstra_s": "s",
        "graph.paths.dijkstra_calls": "count",
        "core.verify.copy_s": "s",
        "core.verify.copies": "count",
        "core.verify.self_s": "s",
        "core.verify.incremental_s": "s",
        **{f"serve.{op}.p50_ms": "ms" for op in OP_TYPES},
        **{f"serve.{op}.tail_ms": "ms" for op in OP_TYPES},
        **{f"serve.{op}.tail_pct": "pct" for op in OP_TYPES},
        **{f"serve.{op}.count": "count" for op in OP_TYPES},
        "serve.repair_s": "s",
        "serve.tier.patch": "count",
        "serve.tier.region": "count",
        "serve.tier.full": "count",
        "serve.repaired_edges": "count",
        "serve.degraded_answers": "count",
        "serve.skipped": "count",
        "two_spanner.model_s": "s",
        "two_spanner.oracle_s": "s",
        "two_spanner.rounding_s": "s",
        "two_spanner.cuts_added": "count",
        "two_spanner.rounding_attempts": "count",
        "lp.solve_s": "s",
        "lp.solves": "count",
        "sweep.overhead_s": "s",
        "sweep.attempts": "count",
        "session.self_s": "s",
        "calib.p50_ms": "ms",
        "calib.iqr": "ratio",
        "calib.contaminated": "count",
        "calib.unit_iqr_raw": "ratio",
        "calib.unit_iqr_cal": "ratio",
        **{f"raw.{name}": END_TO_END[name] for name in CALIBRATED},
        "trace.overhead": "ratio",
        "trace.missing": "count",
    }


def _prepare_environment() -> None:
    """Keep every file the run touches inside the checkout; quiet BLAS."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_COMPILED_CACHE"] = str(BUILD / "repro-compiled")
    os.environ["TMPDIR"] = str(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import tempfile

    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))


def _stop_processes() -> None:
    """Stop every process the run started and wait for each to end.

    ``run_sweep`` starts its workers with the ``spawn`` method, which
    also launches multiprocessing's resource tracker. The workers are
    joined by ``run_sweep`` on every normal path; the tracker would
    outlive this process, so it is stopped here and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()  # a no-op when never started


def _exit_on_sigterm(signum, _frame) -> None:
    """Turn SIGTERM into ``SystemExit`` so that cleanup runs on that path too."""
    raise SystemExit(128 + signum)


def _peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Measurement:
    """One untraced pass: ``SETUP_REPEATS`` setups, then every unit once."""

    def __init__(self, wl, seed, n_units, harness, sampler):
        self.calibrator = calibrator = harness.Calibrator(sampler)
        self.setup_raw, self.setup_cal = [], []
        #: Setups whose calibration spins stayed contaminated.
        self.setup_unclean = 0
        for _ in range(SETUP_REPEATS):
            self.state = None
            gc.collect()
            self.state, elapsed = harness.timed(sampler, wl.setup, seed, n_units)
            calibrated, clean = calibrator.calibrate(elapsed)
            self.setup_raw.append(elapsed)
            self.setup_cal.append(calibrated)
            self.setup_unclean += not clean
        gc.collect()
        runner = harness.Runner(calibrator)
        self.outcome = wl.run(self.state, runner, list(range(n_units)))
        calibrator.close()

    def timings(self, wl, harness, raw: bool) -> dict:
        """The calibrated end-to-end times, or their raw twins."""
        pick = self.calibrator.raw if raw else self.calibrator.calibrated
        latency = pick(wl.latency_tag)
        every = pick()
        return {
            "latency_p50_ms": harness.median(latency) * 1e3,
            "latency_tail_ms": harness.tail(latency)[1] * 1e3,
            "throughput_ops_s": len(every) / sum(every),
            "setup_s": harness.median(self.setup_raw if raw else self.setup_cal),
        }

    def failed_units(self) -> set:
        return set(self.outcome.failed_units) | self.calibrator.unclean_units()


def trace_pass(wl, main, seed, n_units, harness, tracer_mod, sampler):
    """Re-run the first third of the units (at least two) with wrappers on.

    The baseline for ``trace.overhead`` is the same units of the untraced
    pass, unless the workload's traced units run differently (lp-sweep's
    run in-process, where the wrappers reach them); then they run once
    more untraced, after one warm-up unit, so like compares with like.
    """
    units = list(range(max(2, n_units // 3)))
    state = wl.trace_state(main.state, seed, n_units)
    if wl.traced_units_differ:
        wl.run(state, harness.Runner(harness.Calibrator(sampler)), [0], traced=True)
        baseline = harness.Calibrator(sampler)
        wl.run(state, harness.Runner(baseline), units, traced=True)
        baseline.close()
        base_mean = sum(baseline.calibrated()) / len(units)
    else:
        base_mean = sum(
            raw * f for u, _t, raw, f, _c in main.calibrator.samples if u in units
        ) / len(units)
    tracer = tracer_mod.Tracer()
    calibrator = harness.Calibrator(sampler)
    gc.collect()
    tracer.install()
    try:
        runner = harness.Runner(calibrator, tracer)
        outcome = wl.run(state, runner, units, traced=True)
    finally:
        tracer.uninstall()
    calibrator.close()
    traced_mean = sum(calibrator.calibrated()) / len(units)
    return tracer, calibrator, outcome, units, traced_mean / base_mean


def layer_metrics(wl, main, trace, n_units, harness, names):
    """Every per-layer metric; layers the workload bypasses read 0."""
    tracer, tcal, _toutcome, units, overhead = trace
    calibrator = main.calibrator
    factors = tcal.factors()
    per = 1.0 / len(units)
    total, own = tracer.layer_times(factors)
    counts = tracer.counts
    values = {name: 0.0 for name in names}
    values.update({
        "compiled.greedy_s": total["compiled.greedy"] * per,
        "compiled.greedy_calls": counts["compiled.greedy_calls"] * per,
        "compiled.edges_in": counts["compiled.edges_in"] * per,
        "compiled.edges_kept": counts["compiled.edges_kept"] * per,
        "core.conversion.glue_s": own["core.conversion"] * per,
        "core.conversion.iterations": counts["core.conversion.iterations"] * per,
        "graph.csr.snapshot_s": total["graph.csr.snapshot"] * per,
        "graph.csr.snapshot_builds": tracer.span_count("graph.csr.snapshot") * per,
        "graph.csr.snapshot_hit_rate": tracer.snapshot_hit_rate(),
        "graph.csr.mask_s": total["graph.csr.mask"] * per,
        "graph.paths.dijkstra_s": total["graph.paths.dijkstra"] * per,
        "graph.paths.dijkstra_calls": tracer.span_count("graph.paths.dijkstra") * per,
        "core.verify.copy_s": total["core.verify.copy"] * per,
        "core.verify.copies": tracer.span_count("core.verify.copy") * per,
        "core.verify.self_s": own["session.verify"] * per,
        "core.verify.incremental_s": total["core.verify.incremental"] * per,
        "serve.repair_s": total["serve.repair"] * per,
        "two_spanner.model_s": total["two_spanner.model"] * per,
        "two_spanner.oracle_s": total["two_spanner.oracle"] * per,
        "two_spanner.rounding_s": total["two_spanner.rounding"] * per,
        "lp.solve_s": total["lp.solve"] * per,
        "lp.solves": tracer.span_count("lp.solve") * per,
        "session.self_s": tracer.session_self(factors) * per,
    })
    if counts["core.conversion.iterations"]:
        values["core.conversion.survivors"] = (
            counts["core.conversion.survivors"] / counts["core.conversion.iterations"]
        )
    values.update(wl.layer_values(main.outcome, calibrator, n_units, harness))
    raw_unit, cal_unit = unit_spread(harness, calibrator, wl.latency_tag)
    values.update({
        "calib.p50_ms": harness.median(calibrator.spins) * 1e3,
        "calib.iqr": harness.rel_iqr(calibrator.spins),
        "calib.contaminated": calibrator.contaminated + tcal.contaminated,
        "calib.unit_iqr_raw": raw_unit,
        "calib.unit_iqr_cal": cal_unit,
        **{f"raw.{name}": value for name, value in main.timings(wl, harness, raw=True).items()},
        "trace.overhead": overhead,
        "trace.missing": len(tracer.missing),
    })
    return values


def unit_spread(harness, calibrator, tag):
    """Within-run spread of one unit kind, raw and calibrated."""
    return harness.rel_iqr(calibrator.raw(tag)), harness.rel_iqr(calibrator.calibrated(tag))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()

    import harness
    import tracer as tracer_mod
    import workloads
    from repro.compiled import compiled_available

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    # Users compile the backend once per machine: build/load it before
    # the setup clock starts.
    wl.expect_compiled = compiled_available()
    n_units = wl.units_for(args.seconds)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sampler = harness.SpeedSampler()
    try:
        return report(args, wl, n_units, harness, tracer_mod, sampler)
    finally:
        sampler.close()
        _stop_processes()


def report(args, wl, n_units, harness, tracer_mod, sampler) -> int:
    """Measure, check, print every metric and the result line."""
    main = Measurement(wl, args.seed, n_units, harness, sampler)
    quality = wl.finish(main.state, main.outcome)
    metrics = {
        **main.timings(wl, harness, raw=False),
        **quality,
        "peak_rss_mb": _peak_rss_mb(with_children=wl.name == "lp-sweep"),
    }
    failed = main.failed_units()
    print(f"workload {wl.name} seed {args.seed}: {n_units} units, "
          f"compiled backend {'loaded' if wl.expect_compiled else 'unavailable'}")
    for note in main.outcome.notes:
        print(f"  FAILED {note}")
    raw = main.timings(wl, harness, raw=True)
    raw_unit, cal_unit = unit_spread(harness, main.calibrator, wl.latency_tag)
    print("  raw " + "  ".join(f"{name} {value:.4f}" for name, value in raw.items()))
    print(f"  spin p50 {harness.median(main.calibrator.spins) * 1e3:.3f} ms, "
          f"{main.calibrator.contaminated} contaminated; unit spread raw "
          f"{raw_unit:.4f} calibrated {cal_unit:.4f}")

    if args.trace:
        units_of = per_layer_units()
        trace = trace_pass(wl, main, args.seed, n_units, harness, tracer_mod, sampler)
        values = layer_metrics(wl, main, trace, n_units, harness, units_of)
        tracer, tcal, toutcome = trace[0], trace[1], trace[2]
        failed |= set(toutcome.failed_units) | tcal.unclean_units()
        for note in toutcome.notes:
            print(f"  FAILED traced {note}")
        for target in tracer.missing:
            print(f"  wrap target missing (skipped): {target}")
        out_dir = BUILD / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(path, workload=wl.name, seed=args.seed, units=len(trace[3]),
                    factors=tcal.factors())
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        units_of = END_TO_END
        values = {name: metrics[name] for name in END_TO_END}
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6f} {units_of[name]}")
    n_failed = min(n_units, len(failed) + main.setup_unclean)
    result = {
        "correct": n_failed == 0,
        "attempted": n_units,
        "failed": n_failed,
        "metrics": {
            name: harness.metric(value, units_of[name]) for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
