"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``ft-spanner`` — build an r-fault-tolerant k-spanner (Theorem 2.1
  conversion) of a JSON graph, optionally verify and export it;
* ``ft2-approx`` — run the Theorem 3.3 O(log n)-approximation for Minimum
  Cost r-Fault Tolerant 2-Spanner on a JSON digraph;
* ``run`` — execute a JSON :class:`repro.spec.SpannerSpec` file (the
  sharded-sweep workhorse: a ``run`` of a spec written by ``--spec-out``
  reproduces the originating invocation byte-for-byte in ``--json`` mode);
* ``sweep`` — the sharded sweep driver (:mod:`repro.sweep`): execute a
  plan JSON across ``--workers`` processes, run one ``--shard i/of``
  (persisting its envelope for a later ``merge``), ``--emit`` a plan
  from a parameter grid (refusing points the registry says an algorithm
  cannot serve), print the ``--coverage`` matrix, drive a fault-tolerant
  ``--scheduler DIR`` work queue (:mod:`repro.sched`: leases,
  heartbeats, crash recovery, resumable across invocations), or report
  a scheduler's ``--status`` including its quarantine ledger;
* ``sweep-worker`` — join a scheduled sweep from any machine sharing
  the scheduler directory, claiming shards until the sweep finishes;
* ``merge`` — recombine persisted shard envelopes (or a whole scheduler
  directory) into the sequential path's report list (byte-identical for
  the same plan and seeds);
* ``workload`` — generate a seeded operation stream (reads + mutations,
  optional chaos bursts) for ``serve`` (:mod:`repro.serve.workload`);
* ``serve`` — replay a workload JSON against a maintained FT 2-spanner
  with the tiered repair policy (:class:`repro.serve.SpannerService`),
  reporting health, repair-tier histogram, and the final spanner digest;
* ``algorithms`` — the registry's capability table
  (:func:`repro.registry.describe_algorithms`);
* ``hosts`` — the host-topology registry (:mod:`repro.hosts`): list
  generator capabilities, describe one generator, ``--emit`` a typed
  :class:`repro.hosts.HostSpec` JSON, or ``--materialize`` the graph
  itself as the JSON file every other command reads (``sweep --emit
  --topology`` consumes the same registry);
* ``verify`` — check a spanner file against a host file for a given
  ``(k, r)``, with exhaustive / sampled / Lemma 3.1 modes.

Every subcommand shares one parent parser providing ``--seed``,
``--method`` (the :func:`repro.graph.csr.resolve_method` dispatch
switch), and ``--json`` (machine-readable output on stdout). The build
subcommands are thin :class:`repro.spec.SpannerSpec` constructors over
one :class:`repro.session.Session`; they contain no algorithm plumbing
of their own.

Every command is deterministic under ``--seed``; ``run`` takes its seed
and method from the spec file unless the flags are given explicitly.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional

from .analysis import render_table
from .errors import ReproError
from .graph import dump_json, load_json, to_dot
from .hosts import (
    HostSpec,
    describe_host_generators,
    get_host_generator,
)
from .registry import describe_algorithms
from .sched import (
    init_scheduler_dir,
    is_scheduler_dir,
    run_scheduled_sweep,
    run_worker,
    scheduler_envelope_paths,
    scheduler_status,
)
from .session import Session, _lemma31_decides
from .spec import BuildReport, FaultModel, SpannerSpec
from .sweep import (
    SweepPlan,
    coverage_matrix,
    emit_grid_plan,
    load_shard_report,
    merge_shard_reports,
    parse_shard,
    run_shard,
    run_sweep,
    save_shard_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant spanners (Dinitz & Krauthgamer, PODC 2011)",
    )
    # One parent parser for the flags every subcommand shares — a single
    # definition instead of per-subcommand duplication. Defaults are None
    # sentinels so handlers can tell "left unset" (fall back to 0/auto,
    # or to the spec file's own values for `run`) from an explicit choice.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="deterministic seed (default 0)")
    common.add_argument(
        "--method",
        choices=["auto", "csr", "dict", "compiled"],
        default=None,
        help="kernel dispatch: CSR fast path, dict reference, compiled C "
             "backend (errors if it cannot build/load), or auto (default; "
             "picks by size and backend availability)",
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON on stdout instead of tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ft = sub.add_parser(
        "ft-spanner", parents=[common], help="Theorem 2.1 conversion"
    )
    ft.add_argument("graph", help="host graph JSON path")
    ft.add_argument("--k", type=float, default=3.0, help="stretch bound")
    ft.add_argument("--r", type=int, default=1, help="fault tolerance")
    ft.add_argument("--schedule", choices=["theorem", "light"], default="theorem")
    ft.add_argument("--iterations", type=int, default=None)
    ft.add_argument("--out", default=None, help="write the spanner JSON here")
    ft.add_argument("--dot", default=None, help="write a DOT rendering here")
    ft.add_argument("--spec-out", default=None,
                    help="write the equivalent spec JSON here (for `repro run`)")
    ft.add_argument(
        "--verify",
        choices=["none", "exhaustive", "sampled"],
        default="sampled",
    )

    approx = sub.add_parser(
        "ft2-approx", parents=[common], help="Theorem 3.3 approximation"
    )
    approx.add_argument("graph", help="host digraph JSON path")
    approx.add_argument("--r", type=int, default=1)
    approx.add_argument("--out", default=None, help="write the spanner JSON here")
    approx.add_argument("--spec-out", default=None,
                        help="write the equivalent spec JSON here")

    run = sub.add_parser(
        "run", parents=[common],
        help="execute a JSON spec file (--seed/--method override the spec "
             "when given)",
    )
    run.add_argument("spec", help="SpannerSpec JSON path (see --spec-out)")
    run.add_argument("--out", default=None, help="write the spanner JSON here")
    run.add_argument("--dot", default=None, help="write a DOT rendering here")
    run.add_argument(
        "--verify",
        choices=["none", "exhaustive", "sampled", "lemma31", "auto"],
        default=None,
        help="default: sampled (lemma31 for the fixed-stretch-2 algorithms)",
    )

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="sharded sweep driver: run/emit spec-list plans "
             "(see also `merge`)",
    )
    sweep.add_argument("plan", nargs="?", default=None,
                       help="sweep plan JSON path (see --emit)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for a full-plan run")
    sweep.add_argument(
        "--shard", default=None, metavar="i/of",
        help="run only this shard of the plan (persist its envelope with "
             "--reports-dir, then recombine with `repro merge`)",
    )
    sweep.add_argument("--reports-dir", default=None,
                       help="persist one shard-<i>.json envelope per shard here")
    sweep.add_argument("--include-spanner", action="store_true",
                       help="carry spanner edge lists inside the envelopes")
    sweep.add_argument(
        "--emit", default=None, metavar="OUT",
        help="emit a plan over a parameter grid to OUT instead of running "
             "(needs --graph and --algorithms; refuses unsupported points)",
    )
    sweep.add_argument("--graph", action="append", default=None,
                       help="host graph JSON path for --emit (repeatable)")
    sweep.add_argument(
        "--topology", action="append", default=None,
        metavar="NAME[:K=V,...]",
        help="registered host generator for --emit, e.g. "
             "kautz:d=2,diameter=3 (repeatable; randomized generators "
             "take their seed from --seed; unsupported host x algorithm "
             "points are refused or, with --skip-unsupported, recorded "
             "on plan.skipped)",
    )
    sweep.add_argument("--algorithms", default=None,
                       help="comma-separated registry names for --emit")
    sweep.add_argument("--stretch", default="3",
                       help="comma-separated stretch values (default 3)")
    sweep.add_argument("--r", default="1",
                       help="comma-separated fault tolerances; 0 = no faults "
                            "(default 1)")
    sweep.add_argument("--fault-kind", choices=["vertex", "edge"],
                       default="vertex",
                       help="fault model of the r > 0 grid points")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="seeds per grid point (values seed..seed+N-1)")
    sweep.add_argument("--params", default=None,
                       help="JSON object of params applied to every spec")
    sweep.add_argument("--name", default="sweep", help="plan name")
    sweep.add_argument("--skip-unsupported", action="store_true",
                       help="drop unsupported grid points instead of refusing")
    sweep.add_argument("--coverage", action="store_true",
                       help="print the registry's coverage matrix and exit")
    sweep.add_argument(
        "--scheduler", default=None, metavar="DIR",
        help="fault-tolerant work-queue directory (any shared filesystem): "
             "initialize it from the plan (idempotent) and drive it with "
             "--workers local shard processes at a time; more workers can "
             "join from other machines via `repro sweep-worker DIR`. "
             "--workers 0 initializes without running",
    )
    sweep.add_argument(
        "--status", default=None, metavar="DIR",
        help="report a scheduler directory's progress (per-shard states, "
             "retries, quarantine ledger) and exit; 3 when degraded",
    )
    sweep.add_argument(
        "--shards", type=int, default=None,
        help="shard count for --scheduler initialization "
             "(default: a worker-friendly count derived from the plan)",
    )
    sweep.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="S",
        help="scheduler lease TTL: a worker silent this long is presumed "
             "dead and its shard reclaimed (default 30)",
    )
    sweep.add_argument(
        "--max-attempts", type=int, default=3,
        help="scheduler attempts per shard before quarantine (default 3)",
    )
    sweep.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="kill any shard running longer than this many wall-clock "
             "seconds and retry it in a fresh process",
    )

    sweep_worker = sub.add_parser(
        "sweep-worker", parents=[common],
        help="join a scheduled sweep: claim shards from a scheduler "
             "directory until the sweep completes",
    )
    sweep_worker.add_argument(
        "scheduler", help="scheduler directory (see `sweep --scheduler`)"
    )
    sweep_worker.add_argument("--worker-id", default=None,
                              help="stable worker identity (default: "
                                   "host-pid-nonce)")
    sweep_worker.add_argument("--max-shards", type=int, default=None,
                              help="claim at most this many shards, then exit")
    sweep_worker.add_argument("--poll", type=float, default=None, metavar="S",
                              help="idle poll interval (default: TTL/4)")

    merge = sub.add_parser(
        "merge", parents=[common],
        help="recombine sweep shard envelopes into the sequential report list",
    )
    merge.add_argument(
        "shards", nargs="+",
        help="shard-<i>.json envelope files, reports directories, and/or "
             "scheduler directories (refused while shards are quarantined)",
    )
    merge.add_argument("--out", default=None,
                       help="also write the merged result JSON here")

    wl = sub.add_parser(
        "workload", parents=[common],
        help="generate a seeded operation stream for `repro serve`",
    )
    wl.add_argument("graph", help="initial host graph JSON path")
    wl.add_argument("--ops", type=int, default=500,
                    help="number of stream operations (default 500)")
    wl.add_argument("--read-ratio", type=float, default=0.9,
                    help="fraction of read ops (default 0.9)")
    wl.add_argument("--chaos-edges", type=int, default=0,
                    help="append a DEL_EDGE burst of this size")
    wl.add_argument("--chaos-nodes", type=int, default=0,
                    help="append a DEL_NODE burst of this size")
    wl.add_argument("--adversarial", action="store_true",
                    help="aim chaos bursts at the spanner's own edges")
    wl.add_argument("--r", type=int, default=1,
                    help="tolerance of the spanner adversarial bursts target")
    wl.add_argument("--out", required=True, help="workload JSON output path")

    srv = sub.add_parser(
        "serve", parents=[common],
        help="replay a workload stream against a maintained FT 2-spanner",
    )
    srv.add_argument("graph", help="initial host graph JSON path")
    srv.add_argument("workload", help="workload JSON path (see `workload`)")
    srv.add_argument("--r", type=int, default=1, help="fault tolerance")
    srv.add_argument("--algorithm", default="ft2-stream",
                     help="registered stretch-2 builder for (re)builds")
    srv.add_argument(
        "--policy", choices=["tiered", "lazy", "rebuild-per-op"],
        default="tiered",
        help="tiered eager repair (default), lazy (run degraded between "
             "repairs), or the rebuild-per-mutation baseline",
    )
    srv.add_argument("--patch-threshold", type=float, default=0.02,
                     help="damage fraction up to which the patch tier runs")
    srv.add_argument("--rebuild-threshold", type=float, default=0.10,
                     help="damage fraction above which a full rebuild runs")
    srv.add_argument(
        "--final-rebuild", action="store_true",
        help="finish with a full rebuild (compaction): the final spanner "
             "then equals a from-scratch build on the final host",
    )
    srv.add_argument("--out", default=None,
                     help="write the final spanner JSON here")
    srv.add_argument("--results-out", default=None,
                     help="write the per-op result trace JSON here")

    sub.add_parser(
        "algorithms", parents=[common],
        help="list registered algorithms and their capabilities",
    )

    hosts = sub.add_parser(
        "hosts", parents=[common],
        help="list host-topology generators, or emit/materialize one",
    )
    hosts.add_argument(
        "name", nargs="?", default=None,
        help="generator to describe/emit/materialize (omit to list all)",
    )
    hosts.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="generator parameter (repeatable; VALUE parsed as JSON, "
             "falling back to a plain string)",
    )
    hosts.add_argument(
        "--emit", default=None, metavar="OUT",
        help="write the HostSpec JSON here (consumable by SpannerSpec "
             "graph bindings and sweep plans)",
    )
    hosts.add_argument(
        "--materialize", default=None, metavar="OUT",
        help="build the graph and write its JSON here",
    )

    ver = sub.add_parser(
        "verify", parents=[common], help="verify a spanner against a host graph"
    )
    ver.add_argument("graph", help="host graph JSON path")
    ver.add_argument("spanner", help="spanner JSON path")
    ver.add_argument("--k", type=float, default=3.0)
    ver.add_argument("--r", type=int, default=1)
    ver.add_argument(
        "--mode", choices=["exhaustive", "sampled", "lemma31"], default="sampled",
        help="exhaustive and sampled read weights as lengths. lemma31 "
             "needs --k 2 and reads weights as costs with unit lengths "
             "(Section 3): it counts two-paths, so it decides only "
             "spanners built for that setting. A file pair cannot say "
             "which its weights are, so on a host whose weights are "
             "lengths lemma31 can pass a spanner that exhaustive rejects",
    )
    ver.add_argument("--trials", type=int, default=100)
    return parser


def _print_json(doc) -> None:
    """Canonical JSON to stdout: sorted keys, so output is byte-stable."""
    print(json.dumps(doc, sort_keys=True, indent=2))


def _seed_of(args) -> int:
    """The effective seed: explicit flag value, else the documented 0."""
    return 0 if args.seed is None else args.seed


def _method_of(args) -> str:
    """The effective method: explicit flag value, else ``auto``."""
    return args.method if args.method is not None else "auto"


def _execute_spec(
    spec: SpannerSpec,
    verify_mode: str,
    json_mode: bool,
    out: Optional[str],
    dot: Optional[str],
    title: str,
    table_rows,
) -> int:
    """Shared build/verify/export driver behind ft-spanner, ft2-approx, run.

    ``table_rows`` maps ``(session, report, host)`` to the human table's
    rows; the JSON document is the same for every entry point, which is
    what makes ``repro run`` reproduce a build subcommand byte-for-byte.
    """
    session = Session()
    report = session.build(spec)
    host = session.resolve_graph(spec)
    verification = None
    ok = True
    if verify_mode != "none":
        # The verification RNG is keyed to the build seed, so a rerun of
        # the same spec (e.g. via `repro run`) samples the same faults.
        ok = session.verify(
            report,
            graph=host,
            mode=verify_mode,
            trials=100,
            seed=report.resolved_seed or 0,
        )
        verification = {"mode": verify_mode, "ok": ok}
    if json_mode:
        doc = report.to_dict(include_spanner=False, include_timing=False)
        doc["verification"] = verification
        _print_json(doc)
    else:
        rows = table_rows(session, report, host)
        if verification is not None:
            label = {
                "exhaustive": "exhaustively valid",
                "sampled": "sampled-valid (100 trials)",
                "lemma31": "valid (Lemma 3.1)",
            }.get(verify_mode, f"{verify_mode}-valid")
            rows.append([label, ok])
        print(render_table(["quantity", "value"], rows, title=title))
    if out:
        dump_json(report.spanner, out)
        if not json_mode:
            print(f"spanner written to {out}")
    if dot:
        with open(dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(host, highlight=report.spanner))
        if not json_mode:
            print(f"DOT rendering written to {dot}")
    return 0 if ok else 2


def _ft_spanner_spec(args) -> SpannerSpec:
    """Thin spec constructor for the ft-spanner subcommand."""
    params = {"schedule": args.schedule}
    if args.iterations is not None:
        params["iterations"] = args.iterations
    return SpannerSpec(
        algorithm="theorem21",
        stretch=args.k,
        faults=FaultModel.vertex(args.r),
        method=_method_of(args),
        seed=_seed_of(args),
        params=params,
        graph=args.graph,
    )


def _ft_table_rows(session: Session, report: BuildReport, host) -> list:
    return [
        ["host edges", host.num_edges],
        ["spanner edges", report.size],
        ["iterations", report.stats.get("iterations")],
        ["max survivor |G\\J|", report.stats.get("max_survivor_size")],
    ]


def _cmd_ft_spanner(args) -> int:
    spec = _ft_spanner_spec(args)
    if args.spec_out:
        spec.save(args.spec_out)
        if not args.json:
            print(f"spec written to {args.spec_out}")
    return _execute_spec(
        spec,
        verify_mode=args.verify,
        json_mode=args.json,
        out=args.out,
        dot=args.dot,
        title=f"ft-spanner k={args.k} r={args.r}",
        table_rows=_ft_table_rows,
    )


def _ft2_approx_spec(args) -> SpannerSpec:
    """Thin spec constructor for the ft2-approx subcommand."""
    return SpannerSpec(
        algorithm="ft2-approx",
        stretch=2,
        faults=FaultModel.vertex(args.r),
        method=_method_of(args),
        seed=_seed_of(args),
        graph=args.graph,
    )


def _ft2_table_rows(session: Session, report: BuildReport, host) -> list:
    stats = report.stats
    return [
        ["arcs", host.num_edges],
        ["LP (4) optimum", stats.get("lp_objective")],
        ["rounded cost", stats.get("cost")],
        ["cost / LP", stats.get("ratio_vs_lp")],
        ["alpha", stats.get("alpha")],
        ["rounding attempts", stats.get("rounding_attempts")],
        ["repaired edges", stats.get("repaired_edges")],
    ]


def _cmd_ft2_approx(args) -> int:
    spec = _ft2_approx_spec(args)
    if args.spec_out:
        spec.save(args.spec_out)
        if not args.json:
            print(f"spec written to {args.spec_out}")
    return _execute_spec(
        spec,
        verify_mode="lemma31",
        json_mode=args.json,
        out=args.out,
        dot=None,
        title=f"ft2-approx r={args.r}",
        table_rows=_ft2_table_rows,
    )


def _generic_table_rows(session: Session, report: BuildReport, host) -> list:
    rows = [
        ["algorithm", report.spec.algorithm],
        ["host edges", host.num_edges],
        ["size", report.size],
        ["resolved method", report.resolved_method],
    ]
    for key, value in sorted(report.stats.items()):
        if isinstance(value, (int, float, str, bool)):
            rows.append([key, value])
    return rows


def _cmd_run(args) -> int:
    spec = SpannerSpec.load(args.spec)
    # The spec file is authoritative, but an explicit flag overrides it
    # (e.g. one spec fanned out over `--seed $SHARD` for a sweep).
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.method is not None:
        overrides["method"] = args.method
    if overrides:
        spec = spec.replace(**overrides)
    table_rows = {
        "theorem21": _ft_table_rows,
        "ft2-approx": _ft2_table_rows,
        "dk10-baseline": _ft2_table_rows,
    }.get(spec.algorithm, _generic_table_rows)
    verify_mode = args.verify
    if verify_mode is None:
        # Unset: the rows Lemma 3.1 decides (fixed stretch 2) get its
        # counting check, everything else the sampled default. An
        # explicit choice is always respected.
        verify_mode = "lemma31" if _lemma31_decides(spec) else "sampled"
    return _execute_spec(
        spec,
        verify_mode=verify_mode,
        json_mode=args.json,
        out=args.out,
        dot=args.dot,
        title=f"run {spec.algorithm} "
              f"(stretch={spec.stretch} faults={spec.faults.kind} r={spec.r})",
        table_rows=table_rows,
    )


def _split_csv(text: str, cast, flag: str) -> list:
    """Parse a comma-separated CLI list with an actionable error."""
    kind = "numeric" if cast is _number else cast.__name__
    try:
        values = [cast(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ReproError(
            f"{flag} must be a comma-separated list of {kind} "
            f"values, got {text!r}"
        ) from None
    if not values:
        raise ReproError(f"{flag} must name at least one value, got {text!r}")
    return values


def _number(text: str) -> float:
    """Stretch values: ints stay ints (spec JSON identity), else float."""
    value = float(text)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"stretch must be finite, got {text!r}")
    return int(value) if value == int(value) else value


def _param_value(text: str):
    """``KEY=VALUE`` values: JSON when it parses, plain string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_host_params(entries, flag: str) -> dict:
    """Parse repeatable ``KEY=VALUE`` pairs into a params dict."""
    params = {}
    for entry in entries or ():
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise ReproError(
                f"{flag} takes KEY=VALUE pairs, got {entry!r}"
            )
        params[key] = _param_value(value)
    return params


def _host_spec_from_grid(text: str, seed_base: int) -> HostSpec:
    """Parse a ``--topology NAME[:K=V,...]`` entry into a HostSpec.

    Randomized generators get ``seed_base`` as their seed (HostSpec
    validation requires one); deterministic generators get none (it
    would change their fingerprint for no reason, and validation
    rejects it).
    """
    name, sep, rest = text.partition(":")
    if not name:
        raise ReproError(f"--topology needs a generator name, got {text!r}")
    params = _parse_host_params(
        [part for part in rest.split(",") if part] if sep else [],
        "--topology",
    )
    info = get_host_generator(name)
    seed = None if info.deterministic else seed_base
    return HostSpec(name, params=params, seed=seed)


def _sweep_result_doc(fingerprint: str, reports, include_spanner: bool) -> dict:
    """The deterministic merged-sweep document.

    Identical whether produced by ``sweep --workers N`` or by ``merge``
    over persisted shard envelopes — the byte-identity the CI smoke step
    diffs. Timing never enters (see ``BuildReport.to_dict``); spanner
    edge lists do when the sweep ran with ``--include-spanner``.
    """
    return {
        "format": "repro-sweep-result",
        "version": 1,
        "plan": fingerprint,
        "count": len(reports),
        "reports": [
            report.to_dict(include_spanner=include_spanner) for report in reports
        ],
    }


def _sweep_rows(reports) -> list:
    return [
        [
            index, r.spec.algorithm, r.spec.stretch, r.spec.faults.kind,
            r.spec.faults.r, r.resolved_seed, r.size, r.resolved_method,
        ]
        for index, r in enumerate(reports)
    ]


_SWEEP_HEADER = ["#", "algorithm", "k", "faults", "r", "seed", "size", "method"]


def _status_rows(status: dict) -> list:
    rows = [["plan", status["plan"]],
            ["shards", status["of"]],
            ["specs", status["plan_size"]]]
    rows += [[state, count] for state, count in sorted(
        status["counts"].items()
    )]
    rows.append(["complete", status["complete"]])
    rows.append(["degraded", status["degraded"]])
    return rows


def _print_scheduler_status(status: dict, json_mode: bool) -> None:
    if json_mode:
        _print_json(status)
        return
    print(render_table(
        ["quantity", "value"], _status_rows(status),
        title=f"scheduler {status['name']}",
    ))
    for shard in status["shards"]:
        if shard["state"] in ("done", "pending"):
            continue
        extra = ""
        if "worker" in shard:
            extra = f" worker={shard['worker']}"
        if "lease_age_s" in shard:
            extra += f" lease_age={shard['lease_age_s']:.1f}s"
        print(
            f"  shard {shard['shard']}: {shard['state']} "
            f"(attempts={shard.get('attempts', 0)}){extra}"
        )
    for entry in status["quarantined"]:
        last = entry["attempts"][-1] if entry["attempts"] else {}
        print(
            f"  quarantined shard {entry['shard']} after "
            f"{len(entry['attempts'])} attempts: "
            f"{last.get('error') or last.get('reason')}"
        )


def _cmd_sweep(args) -> int:
    # Refuse flag combinations that would silently do less than asked.
    if (args.emit or args.coverage) and args.plan is not None:
        raise ReproError(
            "sweep --emit/--coverage do not read a plan argument; drop "
            f"{args.plan!r} (emit writes a new plan from the grid flags)"
        )
    if args.shard is not None and args.workers != 1:
        raise ReproError(
            "--shard runs one shard in this process; --workers does not "
            "apply (run the full plan with --workers, or shards without it)"
        )
    if args.status is not None:
        if args.plan is not None or args.scheduler is not None:
            raise ReproError(
                "sweep --status reads only a scheduler directory; drop the "
                "plan argument / --scheduler"
            )
        status = scheduler_status(args.status)
        _print_scheduler_status(status, args.json)
        return 3 if status["degraded"] else 0
    if args.scheduler is not None and args.shard is not None:
        raise ReproError(
            "--shard and --scheduler are different execution models: the "
            "scheduler assigns shards itself (join it with `repro "
            "sweep-worker` instead)"
        )
    if args.workers < 0 or (args.workers == 0 and args.scheduler is None):
        raise ReproError(
            "--workers must be >= 1 (0 is only meaningful with "
            "--scheduler: initialize without running)"
        )
    if args.coverage:
        rows = coverage_matrix()
        if args.json:
            _print_json({"coverage": rows})
        else:
            columns = [key for key in rows[0] if key != "algorithm"]
            print(render_table(
                ["algorithm", *columns],
                [[row["algorithm"],
                  *[("yes" if row[c] else "-") for c in columns]]
                 for row in rows],
                title="registry coverage matrix (emitter refuses '-' points)",
            ))
        return 0
    if args.emit:
        if not (args.graph or args.topology) or not args.algorithms:
            raise ReproError(
                "sweep --emit needs --algorithms and at least one host: "
                "--graph PATH and/or --topology NAME[:K=V,...]"
            )
        try:
            params = json.loads(args.params) if args.params else None
        except json.JSONDecodeError as exc:
            raise ReproError(f"--params is not valid JSON: {exc}") from None
        topologies = [
            _host_spec_from_grid(entry, _seed_of(args))
            for entry in args.topology or ()
        ]
        plan = emit_grid_plan(
            algorithms=_split_csv(args.algorithms, str, "--algorithms"),
            stretches=_split_csv(args.stretch, _number, "--stretch"),
            rs=_split_csv(args.r, int, "--r"),
            hosts={path: path for path in args.graph} if args.graph else None,
            topologies=topologies or None,
            fault_kind=args.fault_kind,
            seeds=args.seeds,
            seed_base=_seed_of(args),
            method=_method_of(args),
            params=params,
            name=args.name,
            skip_unsupported=args.skip_unsupported,
        )
        plan.save(args.emit)
        if args.json:
            _print_json({
                "plan": plan.fingerprint(),
                "specs": len(plan),
                "hosts": sorted(plan.hosts),
                "skipped": list(plan.skipped),
                "out": args.emit,
            })
        else:
            print(
                f"wrote plan {plan.fingerprint()} ({len(plan)} specs over "
                f"{len(plan.hosts)} hosts) to {args.emit}"
            )
            for entry in plan.skipped:
                print(f"  skipped unsupported point {entry}")
        return 0
    if args.plan is None:
        raise ReproError("sweep needs a plan JSON path (or --emit/--coverage)")
    plan = SweepPlan.load(args.plan).resolve_seeds(_seed_of(args))
    if args.shard is not None:
        index, of = parse_shard(args.shard)
        envelope = run_shard(
            plan.shard(index, of), include_spanner=args.include_spanner
        )
        path = None
        if args.reports_dir is not None:
            path = save_shard_report(envelope, args.reports_dir)
        if args.json:
            _print_json(envelope)
        else:
            where = f" -> {path}" if path else ""
            print(
                f"shard {index}/{of} of plan {envelope['plan']}: "
                f"{len(envelope['reports'])} builds{where}"
            )
        return 0
    if args.scheduler is not None:
        manifest, plan = init_scheduler_dir(
            args.scheduler, plan, of=args.shards, seed=_seed_of(args),
            lease_ttl_s=args.lease_ttl, max_attempts=args.max_attempts,
            shard_timeout_s=args.shard_timeout,
            include_spanner=args.include_spanner,
        )
        if args.workers == 0:
            doc = {
                "scheduler": args.scheduler,
                "plan": manifest.plan_fingerprint,
                "shards": manifest.of,
                "initialized": True,
            }
            if args.json:
                _print_json(doc)
            else:
                print(
                    f"initialized scheduler {args.scheduler}: plan "
                    f"{manifest.plan_fingerprint}, {manifest.of} shards "
                    f"(join with `repro sweep-worker {args.scheduler}`)"
                )
            return 0
        reports, status = run_scheduled_sweep(
            args.scheduler, workers=args.workers
        )
        if reports is None:
            # Degraded: quarantined shards (ledger below) or shards left
            # open. The directory stays resumable — rerun, or join more
            # workers — so this exits distinctly from flag errors.
            _print_scheduler_status(status, args.json)
            return 3
        if args.json:
            _print_json(_sweep_result_doc(
                manifest.plan_fingerprint, reports, manifest.include_spanner
            ))
        else:
            print(render_table(
                _SWEEP_HEADER, _sweep_rows(reports),
                title=f"sweep {plan.name}: {len(reports)} builds, "
                      f"scheduled over {manifest.of} shards",
            ))
        return 0
    reports = run_sweep(
        plan,
        workers=args.workers,
        reports_dir=args.reports_dir,
        include_spanner=args.include_spanner,
        shard_timeout_s=args.shard_timeout,
    )
    if args.json:
        _print_json(_sweep_result_doc(
            plan.fingerprint(), reports, args.include_spanner
        ))
    else:
        print(render_table(
            _SWEEP_HEADER, _sweep_rows(reports),
            title=f"sweep {plan.name}: {len(reports)} builds, "
                  f"workers={args.workers}",
        ))
    return 0


def _cmd_sweep_worker(args) -> int:
    summary = run_worker(
        args.scheduler,
        worker_id=args.worker_id,
        max_shards=args.max_shards,
        poll_interval_s=args.poll,
    )
    if args.json:
        _print_json(summary)
    else:
        print(
            f"worker {summary['worker']}: claimed {summary['claimed']} "
            f"shard(s), completed {summary['completed']}, failed "
            f"{summary['failed']}, reclaimed {summary['reclaimed']} "
            f"expired lease(s)"
        )
        counts = ", ".join(
            f"{state}={count}"
            for state, count in sorted(summary["counts"].items()) if count
        )
        print(f"scheduler now: {counts or 'empty'}")
    return 3 if summary["degraded"] else 0


def _cmd_merge(args) -> int:
    paths: List[str] = []
    for entry in args.shards:
        if os.path.isdir(entry):
            if is_scheduler_dir(entry):
                # Full-coverage discipline: raises while any shard is
                # quarantined or unfinished, so a degraded sweep can
                # never silently merge into a "complete" result.
                paths.extend(scheduler_envelope_paths(entry))
                continue
            # Lexicographic order is enough: merge_shard_reports orders
            # reports by their parent-plan indices, not file order.
            found = sorted(glob.glob(os.path.join(entry, "shard-*.json")))
            if not found:
                raise ReproError(f"no shard-*.json envelopes under {entry}")
            paths.extend(found)
        elif not os.path.exists(entry):
            raise ReproError(f"merge input {entry!r} does not exist")
        else:
            paths.append(entry)
    envelopes = [load_shard_report(path) for path in paths]
    reports = merge_shard_reports(envelopes)
    # Envelopes of an --include-spanner sweep carry each edge list.
    include_spanner = any(
        "spanner" in doc for env in envelopes for doc in env["reports"]
    )
    doc = _sweep_result_doc(envelopes[0]["plan"], reports, include_spanner)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if args.json:
        _print_json(doc)
    else:
        print(render_table(
            _SWEEP_HEADER, _sweep_rows(reports),
            title=f"merged {len(envelopes)} shard envelopes: "
                  f"{len(reports)} builds",
        ))
        if args.out:
            print(f"merged result written to {args.out}")
    return 0


def _cmd_workload(args) -> int:
    from .serve import (
        ChaosInjector,
        WorkloadGenerator,
        apply_mutations,
        read_write_weights,
        save_workload,
        stream_ft2_spanner,
    )

    host = load_json(args.graph)
    generator = WorkloadGenerator(
        host, seed=_seed_of(args), weights=read_write_weights(args.read_ratio)
    )
    ops = generator.generate(args.ops)
    chaos_ops = 0
    if args.chaos_edges or args.chaos_nodes:
        # Bursts target the host state the stream leaves behind, so every
        # chaos deletion names a then-live object.
        evolved = apply_mutations(host.copy(), ops)
        spanner = (
            stream_ft2_spanner(evolved, args.r) if args.adversarial else None
        )
        chaos = ChaosInjector(
            seed=_seed_of(args) + 1, adversarial=args.adversarial
        )
        burst = chaos.edge_burst(evolved, args.chaos_edges, spanner=spanner)
        burst += chaos.node_burst(evolved, args.chaos_nodes, spanner=spanner)
        chaos_ops = len(burst)
        ops += burst
    save_workload(ops, args.out)
    reads = sum(1 for op in ops if not op.is_mutation)
    doc = {
        "ops": len(ops),
        "reads": reads,
        "mutations": len(ops) - reads,
        "chaos_ops": chaos_ops,
        "adversarial": bool(args.adversarial),
        "out": args.out,
    }
    if args.json:
        _print_json(doc)
    else:
        print(
            f"wrote {doc['ops']} ops ({doc['reads']} reads, "
            f"{doc['mutations']} mutations, {chaos_ops} chaos) to {args.out}"
        )
    return 0


def _cmd_serve(args) -> int:
    from .serve import (
        RepairPolicy,
        load_workload,
        spanner_digest,
    )

    host = load_json(args.graph)
    ops = load_workload(args.workload)
    if args.policy == "rebuild-per-op":
        policy = RepairPolicy.rebuild_per_mutation()
    elif args.policy == "lazy":
        policy = RepairPolicy.lazy(args.patch_threshold, args.rebuild_threshold)
    else:
        policy = RepairPolicy(args.patch_threshold, args.rebuild_threshold)
    spec = SpannerSpec(
        args.algorithm,
        stretch=2,
        faults=FaultModel.vertex(args.r) if args.r else FaultModel.none(),
        method=_method_of(args),
        seed=_seed_of(args),
    )
    session = Session(seed=_seed_of(args))
    service = session.serve(spec, graph=host, policy=policy)
    results = service.apply_all(ops)
    if args.final_rebuild:
        service.repair(tier="full")
    doc = {
        "format": "repro-serve-result",
        "version": 1,
        "final_rebuild": bool(args.final_rebuild),
        "summary": service.summary(),
        "spanner_digest": spanner_digest(service.spanner),
    }
    if args.results_out:
        with open(args.results_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": "repro-serve-trace",
                    "version": 1,
                    "results": [r.to_dict() for r in results],
                },
                handle, sort_keys=True, indent=2,
            )
            handle.write("\n")
    if args.out:
        dump_json(service.spanner, args.out)
    if args.json:
        _print_json(doc)
    else:
        summary = doc["summary"]
        print(render_table(
            ["quantity", "value"],
            [
                ["ops applied", summary["ops_applied"]],
                ["health", summary["health"]],
                ["valid (Lemma 3.1)", summary["valid"]],
                ["host edges", summary["host_edges"]],
                ["spanner edges", summary["spanner_edges"]],
                ["patch repairs", summary["stats"]["tiers"]["patch"]],
                ["region repairs", summary["stats"]["tiers"]["region"]],
                ["full rebuilds", summary["stats"]["tiers"]["full"]],
                ["degraded answers", summary["stats"]["degraded_answers"]],
                ["spanner digest", doc["spanner_digest"]],
            ],
            title=f"serve {args.algorithm} r={args.r} policy={args.policy}",
        ))
        if args.out:
            print(f"final spanner written to {args.out}")
        if args.results_out:
            print(f"op trace written to {args.results_out}")
    return 0 if service.is_valid() else 2


def _cmd_algorithms(args) -> int:
    rows = describe_algorithms()
    if args.json:
        _print_json({"algorithms": list(rows)})
        return 0
    flags = ["weighted", "directed", "fault_tolerant", "distributed", "csr_path"]
    print(
        render_table(
            ["name", "stretch domain", *[f.replace("_", " ") for f in flags],
             "summary"],
            [
                [row["name"], row["stretch_domain"],
                 *[("yes" if row[f] else "-") for f in flags], row["summary"]]
                for row in rows
            ],
            title=f"{len(rows)} registered algorithms",
        )
    )
    return 0


def _cmd_hosts(args) -> int:
    if args.name is None:
        if args.param or args.emit or args.materialize:
            raise ReproError(
                "hosts --param/--emit/--materialize need a generator name"
            )
        rows = describe_host_generators()
        if args.json:
            _print_json({"hosts": list(rows)})
            return 0
        flags = ["directed", "weighted", "deterministic"]
        print(render_table(
            ["name", *flags, "params", "summary"],
            [
                [row["name"],
                 *[
                     ("?" if row[f] is None else "yes" if row[f] else "-")
                     for f in flags
                 ],
                 ",".join(row["params"]) or "-", row["summary"]]
                for row in rows
            ],
            title=f"{len(rows)} registered host generators "
                  "(directed '?': depends on the file)",
        ))
        return 0
    info = get_host_generator(args.name)
    # Randomized generators need a seed (HostSpec validation enforces
    # it); deterministic ones must not carry one — an explicit --seed on
    # a deterministic generator falls through to that actionable error.
    seed = args.seed
    if seed is None and not info.deterministic:
        seed = 0
    spec = HostSpec(
        args.name, params=_parse_host_params(args.param, "--param"), seed=seed
    )
    info.validate(spec)
    doc = dict(info.capabilities())
    doc["spec"] = spec.to_dict()
    doc["fingerprint"] = spec.fingerprint()
    if args.materialize:
        graph = spec.materialize()
        dump_json(graph, args.materialize)
        doc["materialized"] = {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "directed": graph.directed,
            "out": args.materialize,
        }
    if args.emit:
        spec.save(args.emit)
        doc["out"] = args.emit
    if args.json:
        _print_json(doc)
        return 0
    rows = [
        ["summary", info.summary],
        ["directed", "depends on file" if info.directed is None
         else info.directed],
        ["weighted", info.weighted],
        ["deterministic", info.deterministic],
        ["params", ",".join(info.params) or "-"],
        ["required", ",".join(info.required) or "-"],
        ["fingerprint", spec.fingerprint()],
    ]
    if info.max_vertices is not None:
        rows.append(["max vertices", info.max_vertices])
    if "materialized" in doc:
        built = doc["materialized"]
        rows += [["n", built["n"]], ["m", built["m"]]]
    print(render_table(
        ["quantity", "value"], rows, title=f"host generator {args.name}"
    ))
    if args.emit:
        print(f"host spec written to {args.emit}")
    if "materialized" in doc:
        print(f"graph written to {doc['materialized']['out']}")
    return 0


def _cmd_verify(args) -> int:
    if args.mode == "lemma31" and args.k != 2:
        raise ReproError(
            f"--mode lemma31 checks fault-tolerant 2-spanners (Lemma 3.1, "
            f"unit lengths); it needs --k 2, got --k {args.k:g}"
        )
    graph = load_json(args.graph)
    spanner = load_json(args.spanner)
    from .core import (
        is_fault_tolerant_spanner,
        is_ft_2spanner,
        sampled_fault_check,
    )

    if args.mode == "exhaustive":
        ok = is_fault_tolerant_spanner(spanner, graph, args.k, args.r)
    elif args.mode == "sampled":
        ok = sampled_fault_check(
            spanner, graph, args.k, args.r, trials=args.trials, seed=_seed_of(args)
        )
    else:
        ok = is_ft_2spanner(spanner, graph, args.r)
    if args.json:
        _print_json({"mode": args.mode, "k": args.k, "r": args.r, "ok": ok})
    else:
        print(f"{args.mode} verification (k={args.k}, r={args.r}): "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ft-spanner": _cmd_ft_spanner,
        "ft2-approx": _cmd_ft2_approx,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "sweep-worker": _cmd_sweep_worker,
        "merge": _cmd_merge,
        "workload": _cmd_workload,
        "serve": _cmd_serve,
        "algorithms": _cmd_algorithms,
        "hosts": _cmd_hosts,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
