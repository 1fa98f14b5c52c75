"""Outside-in layer trace: wrap the library's layer boundaries from the benchmark.

Each target is patched where its caller looks the name up (a class
attribute, or a module global that another module imported by name),
so the library itself carries no tracing code. A wrapper records a span
``[name, start, end, parent, unit]`` in memory; ``after`` hooks add
counts and notes. A target that a later refactor removed is skipped
and listed in :attr:`Tracer.missing` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# -- what the spans and counts record --------------------------------------


def _kernel_counts(tracer, idx, args, kwargs, result) -> None:
    tracer.count("compiled.greedy_calls")
    tracer.count("compiled.edges_in", len(args[1]))
    tracer.count("compiled.edges_kept", len(result))


def _conversion_counts(tracer, idx, args, kwargs, result) -> None:
    stats = result.stats
    tracer.count("core.conversion.iterations", stats.iterations)
    tracer.count("core.conversion.survivors", sum(stats.survivor_sizes))


def _builder_time(tracer, idx, args, kwargs, result) -> None:
    tracer.notes[idx] = result.wall_time_s


def _wrap_oracle(tracer, idx, args, kwargs, result):
    return tracer.wrap(result, "two_spanner.oracle")


#: (target, span name or None for no span, after-hook). The oracle
#: factory records no span itself; its hook wraps the closure it returns.
TARGETS = (
    ("repro.session:Session.build", "session.build", _builder_time),
    ("repro.session:Session.verify", "session.verify", None),
    ("repro.graph.csr:CSRGraph.from_graph", "graph.csr.snapshot", None),
    ("repro.graph.csr:snapshot", "graph.csr.lookup", None),
    ("repro.core.conversion:snapshot", "graph.csr.lookup", None),
    ("repro.session:snapshot", "graph.csr.lookup", None),
    ("repro.serve.service:csr_snapshot", "graph.csr.lookup", None),
    ("repro.graph.csr:CSRGraph.survivor_view", "graph.csr.mask", None),
    ("repro.graph.csr:SurvivorView.filter_edge_ids", "graph.csr.mask", None),
    ("repro.compiled.greedy:CompiledGreedyKernel.run_edge_ids", "compiled.greedy", _kernel_counts),
    ("repro.spanners.greedy:IndexedGreedyKernel.run_edge_ids", "compiled.greedy", _kernel_counts),
    ("repro.core.conversion:fault_tolerant_spanner", "core.conversion", _conversion_counts),
    ("repro.graph.graph:BaseGraph.without_vertices", "core.verify.copy", None),
    ("repro.core.verify:dijkstra", "graph.paths.dijkstra", None),
    ("repro.serve.service:dijkstra", "graph.paths.dijkstra", None),
    ("repro.core.verify:IncrementalFT2Verifier.add_edge", "core.verify.incremental", None),
    ("repro.core.verify:IncrementalFT2Verifier.remove_edge", "core.verify.incremental", None),
    ("repro.core.verify:IncrementalFT2Verifier.add_host_vertex", "core.verify.incremental", None),
    ("repro.core.verify:IncrementalFT2Verifier.add_host_edge", "core.verify.incremental", None),
    ("repro.core.verify:IncrementalFT2Verifier.remove_host_edge", "core.verify.incremental", None),
    ("repro.core.verify:IncrementalFT2Verifier.remove_host_vertex", "core.verify.incremental", None),
    ("repro.serve.service:SpannerService.apply", "serve.apply", None),
    ("repro.serve.service:SpannerService.repair", "serve.repair", None),
    ("repro.lp.model:LinearProgram.solve", "lp.solve", None),
    ("repro.two_spanner.lp_new:build_ft2_lp", "two_spanner.model", None),
    ("repro.two_spanner.lp_new:knapsack_cover_oracle", None, _wrap_oracle),
    ("repro.two_spanner.approx:round_until_valid", "two_spanner.rounding", None),
)


class Tracer:
    """In-memory spans and counts, attributed to the current unit."""

    def __init__(self) -> None:
        self.spans = []
        self.notes = {}
        self.counts = defaultdict(float)
        self.missing = []
        #: Index of the unit running now; -1 outside units (setup, checks).
        self.unit = -1
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if self.unit >= 0:
            self.counts[name] += amount

    def wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = -1
            if name is not None:
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([name, time.perf_counter(), 0.0, parent, tracer.unit])
                tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if name is not None:
                    tracer.spans[idx][2] = time.perf_counter()
                    tracer._stack.pop()
            if after is not None:
                replaced = after(tracer, idx, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target, name, after in targets:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if isinstance(static, classmethod):
                patched = classmethod(self.wrap(static.__func__, name, after))
            elif isinstance(static, staticmethod):
                patched = staticmethod(self.wrap(static.__func__, name, after))
            else:
                patched = self.wrap(static, name, after)
            # Patch where the static attribute lives, so subclasses that
            # inherit it see the wrapper and restoring is exact.
            if inspect.isclass(owner):
                owner = next(c for c in owner.__mro__ if attr in c.__dict__)
            self._patches.append((owner, attr, static))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)

    # -- analysis ------------------------------------------------------

    def layer_times(self, factors):
        """Calibrated ``(total, self)`` seconds per span name, over units.

        ``total`` sums the outermost span of each name (a span whose
        parent has another name), so recursion within one layer is not
        counted twice; ``self`` subtracts the time covered by child
        spans. ``factors[unit]`` calibrates the unit's spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, unit in spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for idx, (name, start, end, parent, unit) in enumerate(spans):
            if unit < 0:
                continue
            factor = factors[unit]
            if parent < 0 or spans[parent][0] != name:
                total[name] += (end - start) * factor
            own[name] += (end - start - child[idx]) * factor
        return total, own

    def snapshot_hit_rate(self) -> float:
        """Share of snapshot lookups served without a CSR build."""
        lookups = misses = 0
        for name, _s, _e, parent, unit in self.spans:
            if unit < 0:
                continue
            if name == "graph.csr.lookup":
                lookups += 1
            elif name == "graph.csr.snapshot" and parent >= 0 and (
                self.spans[parent][0] == "graph.csr.lookup"
            ):
                misses += 1
        return 1.0 - misses / lookups if lookups else 0.0

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[4] >= 0)

    def session_self(self, factors) -> float:
        """Calibrated Session.build time outside the builder call."""
        total = 0.0
        for idx, builder_s in self.notes.items():
            name, start, end, _parent, unit = self.spans[idx]
            if unit >= 0 and name == "session.build":
                total += (end - start - builder_s) * factors[unit]
        return total

    def dump(self, path, **header) -> None:
        doc = dict(header)
        doc.update(
            missing=self.missing,
            counts=dict(self.counts),
            span_fields=["name", "start", "end", "parent", "unit"],
            spans=self.spans,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
