"""The four workloads of ``run.py``, each driven through the public front door.

A workload turns ``--seed`` into its inputs (``setup``, which also runs
one untimed warm-up unit), executes a fixed number of timed units
through a :class:`Runner` (``run``), and checks every output
(``finish``). Why each workload exists, which layers it exercises and
which ROADMAP item should move it are recorded in ``README.md`` next to
this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro import FaultModel, HostSpec, Session, SpannerSpec, run_sweep
from repro.core import is_ft_2spanner
from repro.graph import Graph, barabasi_albert_graph, gnp_random_graph
from repro.graph.csr import invalidate_snapshot
from repro.serve import (
    Operation,
    SpannerService,
    WorkloadGenerator,
    apply_mutations,
    read_write_weights,
    spanner_digest,
)
from repro.serve.workload import OP_TYPES, QUERY_DIST, READS
from repro.sweep import emit_grid_plan


def derive(seed: int, label: str) -> int:
    """A 31-bit sub-seed of the workload seed, stable across processes."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def msf_weight(graph) -> float:
    """Weight of a minimum spanning forest of an undirected host.

    Every spanner of the host contains a spanning forest of it, so this
    lower-bounds any spanner's cost; ``cost / msf_weight`` is lightness.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    index = {v: i for i, v in enumerate(graph.vertices())}
    rows, cols, data = [], [], []
    for u, v, w in graph.edges():
        rows.append(index[u])
        cols.append(index[v])
        data.append(w)
    n = len(index)
    matrix = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return float(minimum_spanning_tree(matrix).sum())


def edge_set_key(graph) -> str:
    """Exact fingerprint of an integer-labelled undirected edge set."""
    rows = sorted(
        (u, v, w) if u < v else (v, u, w) for u, v, w in graph.edges()
    )
    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()


def is_subgraph(spanner, host) -> bool:
    """Every spanner edge is a host edge of the same weight."""
    for u, v, w in spanner.edges():
        if not host.has_edge(u, v) or host.weight(u, v) != w:
            return False
    return True


@dataclass
class Outcome:
    """What the timed units produced, for the run-level checks."""

    failed_units: List[int] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)

    def fail(self, unit: int, why: str) -> None:
        if unit not in self.failed_units:
            self.failed_units.append(unit)
        self.notes.append(f"unit {unit}: {why}")


class Workload:
    """Base: unit count from ``--seconds``; subclasses fill the rest."""

    name = ""
    #: The unit kind whose median is ``latency_p50_ms``.
    latency_tag = ""
    #: Nominal unit cost on the reference VM; fixes the unit count.
    nominal_unit_s = 1.0
    min_units = 4
    #: Whether traced units run differently from timed ones, so that the
    #: tracing overhead needs its own untraced baseline.
    traced_units_differ = False

    def units_for(self, seconds: float) -> int:
        return max(self.min_units, int(round(seconds / self.nominal_unit_s)))

    def setup(self, seed: int, n_units: int):
        raise NotImplementedError

    def trace_state(self, state, seed: int, n_units: int):
        """State for the traced pass (units must not see earlier mutations)."""
        return state

    def run(self, state, runner, units: List[int], traced: bool = False) -> Outcome:
        raise NotImplementedError

    def finish(self, state, outcome: Outcome) -> Dict[str, float]:
        """Run-level checks (into ``outcome``) and the quality metrics."""
        raise NotImplementedError

    def layer_values(self, outcome: Outcome, calibrator, n_units: int, harness) -> Dict[str, float]:
        """Per-layer metrics read from the untraced pass's own outputs."""
        return {}


# ---------------------------------------------------------------------------
# ft-build: the Theorem 2.1 conversion at n = 10^4
# ---------------------------------------------------------------------------


def geometric_host(n: int, mean_degree: float, seed: int) -> Graph:
    """Random geometric graph on the unit square with Euclidean weights.

    A k-d-tree pair query keeps generation O(n log n); the library's
    ``random_geometric_graph`` is an all-pairs loop.
    """
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    radius = math.sqrt(mean_degree / (math.pi * n))
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    lengths = np.sqrt(((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2).sum(axis=1))
    graph = Graph()
    graph.add_vertices(range(n))
    for (u, v), w in zip(pairs.tolist(), lengths.tolist()):
        graph.add_edge(u, v, max(w, 1e-9))
    return graph


class FtBuild(Workload):
    name = "ft-build"
    latency_tag = "build"
    nominal_unit_s = 2.0
    N = 10_000
    MEAN_DEGREE = 24
    BUILD_SEEDS = 3
    #: Set by the runner: whether the compiled backend loaded, in which
    #: case every build must report ``resolved_method == "compiled"``.
    expect_compiled = True

    def setup(self, seed, n_units):
        host = geometric_host(self.N, self.MEAN_DEGREE, derive(seed, "host"))
        specs = [
            SpannerSpec(
                "theorem21", stretch=3, faults=FaultModel.vertex(1),
                seed=derive(seed, f"build{i}"),
            )
            for i in range(self.BUILD_SEEDS)
        ]
        invalidate_snapshot(host)
        warm = Session().build(specs[0], graph=host)  # warm-up unit
        return {"host": host, "specs": specs, "warm": warm}

    def run(self, state, runner, units, traced=False):
        host, specs = state["host"], state["specs"]
        outcome = Outcome()
        keys: Dict[int, str] = {}
        sizes: Dict[int, int] = {}
        lightness: Dict[int, float] = {}
        if not traced:
            warm = state.pop("warm")
            keys[0] = edge_set_key(warm.spanner)
        for i in units:
            which = i % len(specs)
            invalidate_snapshot(host)
            report = runner.unit(i, self.latency_tag, Session().build, specs[which], graph=host)
            if self.expect_compiled and report.resolved_method != "compiled":
                outcome.fail(i, f"resolved_method={report.resolved_method}")
            if traced:
                continue
            spanner = report.spanner
            key = edge_set_key(spanner)
            if which not in sizes:
                sizes[which] = spanner.num_edges
                lightness[which] = spanner.total_weight()
                if not is_subgraph(spanner, host):
                    outcome.fail(i, "spanner is not a subgraph of the host")
            if keys.setdefault(which, key) != key:
                outcome.fail(i, "repeat build of one seed changed the edge set")
        outcome.data.update(sizes=sizes, weights=lightness)
        return outcome

    def finish(self, state, outcome):
        sizes, weights = outcome.data["sizes"], outcome.data["weights"]
        floor = msf_weight(state["host"])
        return {
            "spanner_edges": sum(sizes.values()) / len(sizes),
            "cost_ratio": sum(weights.values()) / len(weights) / floor,
        }


# ---------------------------------------------------------------------------
# verify-sampled: the dict fault-set verifier
# ---------------------------------------------------------------------------


class VerifySampled(Workload):
    name = "verify-sampled"
    latency_tag = "check"
    nominal_unit_s = 0.8
    min_units = 6
    N = 400
    P = 0.05

    def setup(self, seed, n_units):
        host = gnp_random_graph(
            self.N, self.P, seed=derive(seed, "host"), weight_range=(1.0, 10.0)
        )
        session = Session()
        spec = SpannerSpec(
            "theorem21", stretch=3, faults=FaultModel.vertex(2),
            seed=derive(seed, "build"),
        )
        report = session.build(spec, graph=host)
        warm = session.verify(  # warm-up unit
            report, graph=host, mode="sampled", trials=1, seed=derive(seed, "warm")
        )
        return {"host": host, "session": session, "report": report,
                "seed": seed, "warm": warm}

    def run(self, state, runner, units, traced=False):
        session, report, host = state["session"], state["report"], state["host"]
        outcome = Outcome()
        if not state["warm"]:
            outcome.fail(-1, "warm-up fault set rejected the spanner")
        for i in units:
            verdict = runner.unit(
                i, self.latency_tag, session.verify, report, graph=host,
                mode="sampled", trials=1, seed=derive(state["seed"], f"faults{i}"),
            )
            if verdict is not True:
                outcome.fail(i, "sampled fault set rejected the spanner")
        return outcome

    def finish(self, state, outcome):
        spanner, host = state["report"].spanner, state["host"]
        if not is_subgraph(spanner, host):
            outcome.fail(-1, "spanner is not a subgraph of the host")
        return {
            "spanner_edges": float(spanner.num_edges),
            "cost_ratio": spanner.total_weight() / msf_weight(host),
        }


# ---------------------------------------------------------------------------
# serve-mixed: closed-loop replay against the self-healing service
# ---------------------------------------------------------------------------


class ServeMixed(Workload):
    name = "serve-mixed"
    latency_tag = QUERY_DIST
    nominal_unit_s = 1.0 / 70.0
    min_units = 200
    N = 10_000
    BA_M = 5
    READ_RATIO = 0.9

    def _host(self, seed):
        return barabasi_albert_graph(self.N, self.BA_M, seed=derive(seed, "host"))

    def setup(self, seed, n_units):
        host = self._host(seed)
        ops = WorkloadGenerator(
            host, seed=derive(seed, "ops"), weights=read_write_weights(self.READ_RATIO)
        ).generate(n_units)
        service = SpannerService(host, r=1, seed=derive(seed, "service"))
        vertices = list(host.vertices())
        service.apply(  # warm-up unit: a read, so the stream's state is untouched
            Operation(QUERY_DIST, {"u": vertices[0], "v": vertices[-1]})
        )
        return {"service": service, "ops": ops, "seed": seed}

    def trace_state(self, state, seed, n_units):
        return self.setup(seed, n_units)

    def run(self, state, runner, units, traced=False):
        service, ops = state["service"], state["ops"]
        outcome = Outcome()
        for i in units:
            op = ops[i]
            result = runner.unit(i, op.type, service.apply, op)
            if not result.ok:
                outcome.fail(i, f"{op.type} was skipped")
            elif op.type in READS and result.health != "healthy":
                outcome.fail(i, f"{op.type} answered while {result.health}")
        outcome.data["replayed"] = len(units)
        return outcome

    def finish(self, state, outcome):
        service, ops = state["service"], state["ops"]
        stats = service.stats
        if not service.is_valid():
            outcome.fail(-1, "service ended invalid")
        if stats.skipped or stats.degraded_answers:
            outcome.fail(-1, f"skipped={stats.skipped} degraded={stats.degraded_answers}")
        quality = {
            "spanner_edges": float(service.spanner.num_edges),
            "cost_ratio": service.spanner.total_weight() / msf_weight(service.host),
        }
        outcome.data["stats"] = stats.to_dict()
        service.repair(tier="full")
        replayed = apply_mutations(self._host(state["seed"]), ops[: outcome.data["replayed"]])
        fresh = Session().build(
            SpannerSpec("ft2-stream", stretch=2, faults=FaultModel.vertex(1)),
            graph=replayed,
        )
        if spanner_digest(service.spanner) != spanner_digest(fresh.spanner):
            outcome.fail(-1, "compacted spanner differs from a from-scratch build")
        return quality

    def layer_values(self, outcome, calibrator, n_units, harness):
        """Per-op-type latency (never pooled across types) and repair counts."""
        values = {}
        for op in OP_TYPES:
            samples = calibrator.calibrated(op)
            pct, tail = harness.tail(samples)
            values[f"serve.{op}.p50_ms"] = harness.median(samples) * 1e3
            values[f"serve.{op}.tail_ms"] = tail * 1e3
            values[f"serve.{op}.tail_pct"] = pct
            values[f"serve.{op}.count"] = len(samples) / n_units
        stats = outcome.data["stats"]
        for tier, count in stats["tiers"].items():
            values[f"serve.tier.{tier}"] = count / n_units
        for key in ("repaired_edges", "degraded_answers", "skipped"):
            values[f"serve.{key}"] = stats[key] / n_units
        return values


# ---------------------------------------------------------------------------
# lp-sweep: Theorem 3.3 (LP + rounding) through run_sweep
# ---------------------------------------------------------------------------


class LpSweep(Workload):
    name = "lp-sweep"
    latency_tag = "plan"
    nominal_unit_s = 1.7
    #: Traced plans run with ``workers=1`` (in-process), because the
    #: wrappers do not reach spawned workers.
    traced_units_differ = True
    #: One plan of many small hosts: a plan's time sums over every spec,
    #: so a seed's hosts move it less than with a few large ones.
    HOSTS = 24
    N = 30
    P = 0.2
    RS = (1, 2)
    WORKERS = 2

    def setup(self, seed, n_units):
        hosts = {
            f"g{h}": HostSpec(
                "gnp-digraph",
                params={"n": self.N, "p": self.P, "cost_range": [1.0, 10.0]},
                seed=derive(seed, f"host{h}"),
            )
            for h in range(self.HOSTS)
        }
        plan = emit_grid_plan(
            ["ft2-approx"], [2], list(self.RS), hosts=hosts, seeds=1,
            seed_base=derive(seed, "rounding"), name="lp-sweep",
        )
        graphs = {key: spec.materialize() for key, spec in plan.hosts.items()}
        run_sweep(plan, workers=self.WORKERS, include_spanner=True)  # warm-up unit
        return {"plan": plan, "graphs": graphs}

    def run(self, state, runner, units, traced=False):
        plan, graphs = state["plan"], state["graphs"]
        workers = 1 if traced else self.WORKERS
        outcome = Outcome()
        first = None
        overhead: Dict[int, float] = {}
        stats: List[dict] = []
        for i in units:
            reports, envelopes = runner.unit(
                i, self.latency_tag, run_sweep, plan, workers=workers,
                include_spanner=True, with_envelopes=True,
            )
            slowest = max(sum(env["timing"]["wall_times_s"]) for env in envelopes)
            overhead[i] = runner.last_raw - slowest
            stats.append({
                "attempts": sum(env["attempts"] for env in envelopes) / len(envelopes),
                "cuts_added": sum(rep.stats["cuts_added"] for rep in reports),
                "rounding_attempts": sum(rep.stats["rounding_attempts"] for rep in reports),
            })
            for env in envelopes:
                if env["attempts"] != 1 or env["timed_out"]:
                    outcome.fail(i, f"shard {env['shard']['index']} retried")
            rows = [
                (rep.size, rep.stats["ratio_vs_lp"], rep.stats["cost"]) for rep in reports
            ]
            if first is None:
                first = rows
                for rep, key in zip(reports, plan.host_keys):
                    if not is_ft_2spanner(rep.spanner, graphs[key], rep.spec.faults.r):
                        outcome.fail(i, f"spanner on {key} is not an r-FT 2-spanner")
            elif rows != first:
                outcome.fail(i, "a repeat run of the plan changed its spanners")
        outcome.data.update(rows=first, overhead=overhead, stats=stats)
        return outcome

    def finish(self, state, outcome):
        rows = outcome.data["rows"]
        return {
            "spanner_edges": sum(size for size, _r, _c in rows) / len(rows),
            "cost_ratio": sum(ratio for _s, ratio, _c in rows) / len(rows),
        }

    def layer_values(self, outcome, calibrator, n_units, harness):
        """The sweep split, from the untraced ``workers=2`` envelopes."""
        factors = calibrator.factors()
        overhead = outcome.data["overhead"]
        stats = outcome.data["stats"]
        values = {
            "sweep.overhead_s": sum(
                seconds * factors[unit] for unit, seconds in overhead.items()
            ) / len(overhead),
        }
        for key, name in (
            ("attempts", "sweep.attempts"),
            ("cuts_added", "two_spanner.cuts_added"),
            ("rounding_attempts", "two_spanner.rounding_attempts"),
        ):
            values[name] = sum(s[key] for s in stats) / len(stats)
        return values


WORKLOADS = {
    cls.name: cls for cls in (FtBuild, VerifySampled, ServeMixed, LpSweep)
}
