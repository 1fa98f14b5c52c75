"""``ft2-stream``: the linear greedy FT 2-spanner behind the service.

The existing combinatorial baseline
(:func:`repro.two_spanner.combinatorial.greedy_ft2_spanner`) re-scores
every candidate move per iteration — fine for LP-sized instances,
hopeless as the rebuild tier of a service at n = 10^4. This module adds
the streaming variant: walk the host edges **once** in deterministic
``edges()`` order and buy an edge iff Lemma 3.1 is not already satisfied
for it at that moment.

Correctness is monotonicity: a host edge's two-path count only grows as
edges are bought, and it is read from the bought adjacency at decision
time, so an edge skipped because it had ``r + 1`` two-paths (or was
already bought as a hop of an earlier path) stays satisfied, and the
single pass ends Lemma 3.1-valid. The stream keeps only the out/in
adjacency sets of the edges bought so far; each decision is one set
intersection of two of them, O(Δ), so the total cost is O(m · Δ) with
no LP, no re-scoring, and no randomness: the output is a pure function
of the host edge order, which is what the serve CI's
cross-``PYTHONHASHSEED`` byte-identity check leans on.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.verify import _two_path_count
from ..errors import FaultToleranceError
from ..graph.graph import BaseGraph
from ..registry import register_algorithm
from ..spec import SpannerSpec, require_stretch

Artifact = Tuple[BaseGraph, Dict[str, Any]]


def stream_ft2_spanner(graph: BaseGraph, r: int) -> BaseGraph:
    """One-pass greedy r-fault-tolerant 2-spanner of ``graph``.

    Deterministic (host edge order only), always Lemma 3.1-valid, and
    linear in the number of host edges times Δ.
    """
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    need = r + 1
    out: Dict[Any, set] = {v: set() for v in graph.vertices()}
    into = {v: set() for v in graph.vertices()} if graph.directed else out
    bought = []
    for u, v, _w in graph.edges():
        out_u = out[u]
        if v not in out_u and _two_path_count(out_u, into[v], u, v) < need:
            out_u.add(v)
            into[v].add(u)
            bought.append((u, v))
    return graph.edge_subgraph(bought)


@register_algorithm(
    "ft2-stream",
    summary=(
        "One-pass streaming greedy for r-fault-tolerant 2-spanners; the "
        "rebuild tier of the serving layer"
    ),
    stretch_domain="exactly 2 (Lemma 3.1 demand structure)",
    weighted=True,
    directed=True,
    fault_tolerant=True,
    fault_kinds=("none", "vertex", "edge"),
    stretch_kind="fixed",
    fixed_stretch=2.0,
)
def _build_ft2_stream(graph: BaseGraph, spec: SpannerSpec, seed) -> Artifact:
    """Registry adapter for :func:`stream_ft2_spanner` (stretch fixed at 2)."""
    require_stretch(spec, 2)
    spanner = stream_ft2_spanner(graph, spec.faults.r)
    stats = {
        "host_edges": graph.num_edges,
        "spanner_edges": spanner.num_edges,
    }
    return spanner, stats


__all__ = ["stream_ft2_spanner"]
