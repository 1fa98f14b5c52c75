"""Client–server r-fault-tolerant 2-spanners (Elkin–Peleg style).

The paper's introduction credits the O(log n) non-fault-tolerant 2-spanner
approximation to Kortsarz–Peleg [KP94] and Elkin–Peleg [EP01]; the latter
studies the *client–server* generalization: only a designated subset of
**client** edges must be spanned, while any **server** edge may be bought
to do the spanning. Plain 2-spanners are the special case clients =
servers = E.

The knapsack-cover machinery extends verbatim: Lemma 3.1 becomes "every
client edge is bought or covered by r + 1 length-2 paths *of server
edges*", the LP gets cover rows only for client edges while x variables
range over server edges, and Algorithm 1's rounding and analysis go
through unchanged (the union bound is over client edges only). This
module implements that generalization end to end:

* :func:`build_client_server_lp` — LP (4) restricted to a client set;
* :func:`solve_client_server_lp` — with the Lemma 3.2 separation oracle;
* :func:`approximate_client_server_2spanner` — LP + threshold rounding;
* :func:`is_client_server_ft2_spanner` — the generalized Lemma 3.1 check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Set, Tuple

from ..errors import FaultToleranceError, LPError
from ..graph.graph import BaseGraph
from ..lp.cutting_plane import solve_with_cuts
from ..lp.model import GREATER_EQUAL, LESS_EQUAL, LinearProgram
from ..rng import RandomLike, derive_rng, ensure_rng
from .lp_new import FT2SpannerLP, f_var, knapsack_cover_oracle, x_var
from .paths2 import canonical_edge_map, two_path_midpoints
from .rounding import alpha_log_n, draw_thresholds

Vertex = Hashable
EdgeKey = Tuple[Vertex, Vertex]


def _normalize_clients(
    graph: BaseGraph, clients: Iterable[EdgeKey]
) -> List[EdgeKey]:
    """Validate client edges and normalize to the host orientation."""
    canon = canonical_edge_map(graph)
    normalized = []
    seen: Set[EdgeKey] = set()
    for (u, v) in clients:
        if (u, v) not in canon:
            raise LPError(f"client edge ({u!r}, {v!r}) is not a host edge")
        key = canon[(u, v)]
        if key not in seen:
            seen.add(key)
            normalized.append(key)
    return normalized


def build_client_server_lp(
    graph: BaseGraph, clients: Iterable[EdgeKey], r: int
) -> FT2SpannerLP:
    """LP (4) with cover rows only for ``clients``.

    x variables (and costs) cover every host edge — all edges are servers —
    but only client edges demand ``r + 1`` units of direct-plus-2-path
    coverage.
    """
    if r < 0:
        raise LPError(f"r must be nonnegative, got {r}")
    client_keys = _normalize_clients(graph, clients)
    canon = canonical_edge_map(graph)
    lp = LinearProgram(name=f"client-server-ft2(r={r})")
    for u, v, w in graph.edges():
        lp.add_variable(x_var(u, v), 0.0, 1.0, objective=w)

    paths: Dict[EdgeKey, List[Vertex]] = {}
    for (u, v) in client_keys:
        mids = two_path_midpoints(graph, u, v)
        paths[(u, v)] = mids
        cover = {x_var(u, v): float(r + 1)}
        for z in mids:
            f = f_var(u, z, v)
            lp.add_variable(f, 0.0, None, 0.0)
            lp.add_constraint(
                {f: 1.0, x_var(*canon[(u, z)]): -1.0}, LESS_EQUAL, 0.0
            )
            lp.add_constraint(
                {f: 1.0, x_var(*canon[(z, v)]): -1.0}, LESS_EQUAL, 0.0
            )
            cover[f] = 1.0
        lp.add_constraint(cover, GREATER_EQUAL, float(r + 1))
    return FT2SpannerLP(lp=lp, graph=graph, r=r, two_paths=paths)


@dataclass
class ClientServerResult:
    """Rounded client–server spanner with its LP certificate."""

    spanner: BaseGraph
    lp_objective: float
    alpha: float
    attempts: int
    repaired_edges: List[EdgeKey]

    @property
    def cost(self) -> float:
        return self.spanner.total_weight()


def solve_client_server_lp(
    graph: BaseGraph,
    clients: Iterable[EdgeKey],
    r: int,
):
    """Solve the client–server LP (4) with knapsack-cover separation."""
    model = build_client_server_lp(graph, clients, r)
    result = solve_with_cuts(model.lp, [knapsack_cover_oracle(model)])
    return model, result.solution


def client_edge_satisfied(
    spanner: BaseGraph, graph: BaseGraph, u: Vertex, v: Vertex, r: int
) -> bool:
    """Generalized Lemma 3.1 condition for one client edge."""
    if spanner.has_edge(u, v):
        return True
    count = 0
    for z in two_path_midpoints(graph, u, v):
        if spanner.has_edge(u, z) and spanner.has_edge(z, v):
            count += 1
            if count > r:
                return True
    return False


def is_client_server_ft2_spanner(
    spanner: BaseGraph,
    graph: BaseGraph,
    clients: Iterable[EdgeKey],
    r: int,
) -> bool:
    """Check every client edge against the generalized Lemma 3.1."""
    if r < 0:
        raise FaultToleranceError(f"r must be nonnegative, got {r}")
    return all(
        client_edge_satisfied(spanner, graph, u, v, r)
        for (u, v) in _normalize_clients(graph, clients)
    )


def approximate_client_server_2spanner(
    graph: BaseGraph,
    clients: Iterable[EdgeKey],
    r: int,
    seed: RandomLike = None,
    alpha_constant: float = 4.0,
    max_attempts: int = 20,
) -> ClientServerResult:
    """O(log n)-approximation for the client–server problem.

    The Theorem 3.3 pipeline with cover demands restricted to the client
    set; Las-Vegas rounding with the repair fallback of
    :func:`repro.two_spanner.rounding.round_until_valid` (repairs buy the
    unsatisfied *client* edges directly).
    """
    client_keys = _normalize_clients(graph, clients)
    model, solution = solve_client_server_lp(graph, client_keys, r)
    x_values = {
        (u, v): solution.value(x_var(u, v)) for u, v, _w in graph.edges()
    }
    alpha = alpha_log_n(graph.num_vertices, alpha_constant)
    rng = ensure_rng(seed)

    best = None
    best_cost = float("inf")
    for attempt in range(1, max_attempts + 1):
        thresholds = draw_thresholds(graph, derive_rng(rng, attempt))
        chosen = [
            key
            for key, x in x_values.items()
            if min(thresholds[key[0]], thresholds[key[1]]) <= alpha * x
        ]
        candidate = graph.edge_subgraph(chosen)
        if is_client_server_ft2_spanner(candidate, graph, client_keys, r):
            return ClientServerResult(
                spanner=candidate,
                lp_objective=solution.objective,
                alpha=alpha,
                attempts=attempt,
                repaired_edges=[],
            )
        cost = candidate.total_weight()
        if cost < best_cost:
            best, best_cost = candidate, cost
    assert best is not None
    repaired = [
        (u, v)
        for (u, v) in client_keys
        if not client_edge_satisfied(best, graph, u, v, r)
    ]
    for (u, v) in repaired:
        best.add_edge(u, v, graph.weight(u, v))
    return ClientServerResult(
        spanner=best,
        lp_objective=solution.objective,
        alpha=alpha,
        attempts=max_attempts,
        repaired_edges=repaired,
    )
