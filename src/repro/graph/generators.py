"""Graph generators used as experiment workloads.

Every generator takes an optional ``seed`` (int or :class:`random.Random`)
and produces deterministic output given the seed. Vertices are integers
``0..n-1`` unless stated otherwise.

The generators cover:

* classical deterministic families (complete, bipartite, path, cycle, star,
  grid, hypercube) used by unit tests and the integrality-gap experiments;
* random families (Erdős–Rényi, random-regular, Barabási–Albert,
  random-geometric) used as benchmark workloads;
* the two adversarial instances from the paper: the complete digraph that
  breaks the old flow LP (Section 3.1) and the ``M``-gadget that breaks
  LP (3) without knapsack-cover inequalities (Section 3.2).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..errors import GraphError
from ..rng import RandomLike, ensure_rng
from .graph import DiGraph, Graph

# ---------------------------------------------------------------------------
# Deterministic families
# ---------------------------------------------------------------------------


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """Complete undirected graph ``K_n`` with uniform edge weight."""
    g = Graph()
    g.add_vertices(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, weight)
    return g


def complete_digraph(n: int, weight: float = 1.0) -> DiGraph:
    """Complete digraph on ``n`` vertices (all ordered pairs)."""
    g = DiGraph()
    g.add_vertices(range(n))
    for u in range(n):
        for v in range(n):
            if u != v:
                g.add_edge(u, v, weight)
    return g


def complete_bipartite_graph(a: int, b: int, weight: float = 1.0) -> Graph:
    """Complete bipartite graph ``K_{a,b}``.

    Left side is ``0..a-1``, right side is ``a..a+b-1``. This is the
    classical witness that 2-spanners admit no nontrivial absolute size
    bound (every edge is forced).
    """
    g = Graph()
    g.add_vertices(range(a + b))
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v, weight)
    return g


def path_graph(n: int, weight: float = 1.0) -> Graph:
    """Path on ``n`` vertices."""
    g = Graph()
    g.add_vertices(range(n))
    for v in range(n - 1):
        g.add_edge(v, v + 1, weight)
    return g


def cycle_graph(n: int, weight: float = 1.0) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    g = path_graph(n, weight)
    g.add_edge(n - 1, 0, weight)
    return g


def star_graph(n: int, weight: float = 1.0) -> Graph:
    """Star with centre 0 and ``n`` leaves ``1..n``."""
    g = Graph()
    g.add_vertices(range(n + 1))
    for leaf in range(1, n + 1):
        g.add_edge(0, leaf, weight)
    return g


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """2D grid graph; vertex ``(i, j)`` for 0<=i<rows, 0<=j<cols."""
    g = Graph()
    for i in range(rows):
        for j in range(cols):
            g.add_vertex((i, j))
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                g.add_edge((i, j), (i + 1, j), weight)
            if j + 1 < cols:
                g.add_edge((i, j), (i, j + 1), weight)
    return g


def hypercube_graph(dim: int) -> Graph:
    """Boolean hypercube of dimension ``dim``; vertices are ints 0..2^dim-1."""
    g = Graph()
    n = 1 << dim
    g.add_vertices(range(n))
    for v in range(n):
        for bit in range(dim):
            u = v ^ (1 << bit)
            if u > v:
                g.add_edge(v, u, 1.0)
    return g


# ---------------------------------------------------------------------------
# Structured interconnect families
# ---------------------------------------------------------------------------


def kautz_graph(d: int, diameter: int, weight: float = 1.0) -> DiGraph:
    """Kautz digraph ``K(d, D)`` with ``D = diameter``.

    Vertices are the ``(d + 1) * d^D`` strings of length ``D + 1`` over an
    alphabet of ``d + 1`` symbols with no two consecutive symbols equal,
    relabelled ``0..n-1`` in lexicographic order. There is an arc from
    ``s_0 s_1 … s_D`` to ``s_1 … s_D x`` for every ``x != s_D``, so every
    vertex has out-degree (and in-degree) exactly ``d`` and ``m = n * d``.

    The family's defining property for spanner experiments: between every
    ordered pair of distinct vertices there is a *unique* shortest path
    (walking from ``u`` to ``v`` shifts in ``v``'s symbols one at a time,
    and the minimal number of shifts — the overlap of ``u``'s suffix with
    ``v``'s prefix — forces every intermediate string). That makes Kautz
    hosts a sharp stress test for tie-breaking rules and for the directed
    CSR dispatch path.
    """
    if d < 1:
        raise GraphError(f"Kautz graph needs degree d >= 1, got {d}")
    if diameter < 1:
        raise GraphError(f"Kautz graph needs diameter >= 1, got {diameter}")
    sequences = [(a,) for a in range(d + 1)]
    for _ in range(diameter):
        sequences = [
            s + (b,) for s in sequences for b in range(d + 1) if b != s[-1]
        ]
    index = {s: i for i, s in enumerate(sequences)}
    g = DiGraph()
    g.add_vertices(range(len(sequences)))
    for s, i in index.items():
        for b in range(d + 1):
            if b != s[-1]:
                g.add_edge(i, index[s[1:] + (b,)], weight)
    return g


def dcell_counts(n: int, level: int) -> Tuple[int, int]:
    """Closed-form ``(vertices, edges)`` of :func:`dcell_graph`.

    ``t_0 = n`` and ``t_l = t_{l-1} * (t_{l-1} + 1)``; a level-``l`` DCell
    is ``t_{l-1} + 1`` copies of the level-``l-1`` DCell plus one level
    link per copy pair, so ``e_0 = C(n, 2)`` and
    ``e_l = (t_{l-1} + 1) * e_{l-1} + C(t_{l-1} + 1, 2)``.
    """
    if n < 2:
        raise GraphError(f"DCell needs at least 2 servers per cell, got {n}")
    if level < 0:
        raise GraphError(f"DCell level must be >= 0, got {level}")
    t = n
    e = n * (n - 1) // 2
    for _ in range(level):
        copies = t + 1
        e = copies * e + copies * (copies - 1) // 2
        t = t * copies
    return t, e


def dcell_graph(n: int, level: int, weight: float = 1.0) -> Graph:
    """Recursively-defined DCell datacenter fabric ``DCell_level(n)``.

    ``DCell_0`` is a clique of ``n`` servers (one switch, modelled as
    direct links). ``DCell_l`` takes ``t_{l-1} + 1`` copies of
    ``DCell_{l-1}`` (where ``t_{l-1}`` is the sub-cell's server count) and
    adds exactly one server-to-server link between every pair of copies:
    copy ``i`` and copy ``j > i`` are joined by
    ``servers_i[j - 1] -- servers_j[i]``, the standard DCell wiring that
    gives each server at most one link per level. Vertices are tuples
    ``(c_level, …, c_1, i)`` naming the copy path and the server index.
    """
    expected, _ = dcell_counts(n, level)  # validates n and level
    g = Graph()

    def build_cell(prefix: Tuple[int, ...], l: int) -> list:
        if l == 0:
            servers = [prefix + (i,) for i in range(n)]
            for s in servers:
                g.add_vertex(s)
            for i in range(n):
                for j in range(i + 1, n):
                    g.add_edge(servers[i], servers[j], weight)
            return servers
        sub_servers, _ = dcell_counts(n, l - 1)
        copies = [build_cell(prefix + (c,), l - 1) for c in range(sub_servers + 1)]
        for i in range(len(copies)):
            for j in range(i + 1, len(copies)):
                g.add_edge(copies[i][j - 1], copies[j][i], weight)
        return [s for copy in copies for s in copy]

    servers = build_cell((), level)
    assert len(servers) == expected
    return g


def watts_strogatz_graph(
    n: int, k: int, p: float, seed: RandomLike = None, weight: float = 1.0
) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice + seeded rewiring).

    Starts from a ring of ``n`` vertices each joined to its ``k`` nearest
    neighbours (``k`` even), then rewires each lattice edge's far endpoint
    with probability ``p`` to a uniform non-duplicate target — the
    standard construction, so the edge count stays exactly ``n * k / 2``.
    """
    if k % 2 != 0:
        raise GraphError(f"Watts-Strogatz needs even k, got {k}")
    if not 2 <= k < n:
        raise GraphError(f"Watts-Strogatz needs 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    g = Graph()
    g.add_vertices(range(n))
    for j in range(1, k // 2 + 1):
        for u in range(n):
            g.add_edge(u, (u + j) % n, weight)
    for j in range(1, k // 2 + 1):
        for u in range(n):
            if rng.random() >= p:
                continue
            old = (u + j) % n
            # Skip saturated vertices instead of looping forever.
            if g.degree(u) >= n - 1:
                continue
            while True:
                new = rng.randrange(n)
                if new != u and not g.has_edge(u, new):
                    break
            g.remove_edge(u, old)
            g.add_edge(u, new, weight)
    return g


def powerlaw_cluster_graph(
    n: int, m: int, p: float, seed: RandomLike = None
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Grows like Barabási–Albert (each new vertex makes ``m`` links), but
    after every preferential link the next link is, with probability
    ``p``, a *triad closure* to a random neighbour of the vertex just
    linked — raising the clustering coefficient while keeping the
    power-law degree tail.
    """
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    g = Graph()
    g.add_vertices(range(n))
    repeated = list(range(m))
    for v in range(m, n):
        target = repeated[rng.randrange(len(repeated))]
        g.add_edge(v, target, 1.0)
        new_targets = [target]
        while len(new_targets) < m:
            if rng.random() < p:
                neighbours = [
                    w
                    for w in g.neighbors(new_targets[-1])
                    if w != v and not g.has_edge(v, w)
                ]
                if neighbours:
                    choice = neighbours[rng.randrange(len(neighbours))]
                    g.add_edge(v, choice, 1.0)
                    new_targets.append(choice)
                    continue
            while True:
                candidate = repeated[rng.randrange(len(repeated))]
                if candidate != v and not g.has_edge(v, candidate):
                    break
            g.add_edge(v, candidate, 1.0)
            new_targets.append(candidate)
        repeated.extend(new_targets)
        repeated.extend([v] * m)
    return g


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------


def gnp_random_graph(
    n: int,
    p: float,
    seed: RandomLike = None,
    weight_range: Optional[Tuple[float, float]] = None,
) -> Graph:
    """Erdős–Rényi ``G(n, p)``.

    With ``weight_range=(lo, hi)`` edge weights are uniform in that range;
    otherwise all weights are 1 (the unit-length setting of Section 3).
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    g = Graph()
    g.add_vertices(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.uniform(*weight_range) if weight_range else 1.0
                g.add_edge(u, v, w)
    return g


def gnp_random_digraph(
    n: int,
    p: float,
    seed: RandomLike = None,
    cost_range: Optional[Tuple[float, float]] = None,
) -> DiGraph:
    """Directed Erdős–Rényi graph with optional uniform random arc costs.

    This is the workload for the directed Minimum Cost r-Fault Tolerant
    2-Spanner experiments (E6).
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    g = DiGraph()
    g.add_vertices(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                c = rng.uniform(*cost_range) if cost_range else 1.0
                g.add_edge(u, v, c)
    return g


def random_regular_graph(n: int, d: int, seed: RandomLike = None) -> Graph:
    """Random ``d``-regular simple graph via the pairing model + edge swaps.

    Requires ``n * d`` even and ``d < n``. A random stub pairing is drawn
    and conflicts (self-loops, parallel edges) are repaired by degree-
    preserving double-edge swaps with a clean edge — the standard practical
    fix, since restarting the whole pairing succeeds only with probability
    ``~e^{-d²/4}``. Used for the bounded-degree experiments (E7), where the
    paper's Theorem 3.4 gives an O(log Δ) guarantee.
    """
    if d >= n:
        raise GraphError(f"degree {d} must be < n = {n}")
    if (n * d) % 2 != 0:
        raise GraphError(f"n * d must be even, got n={n}, d={d}")
    rng = ensure_rng(seed)
    for _restart in range(50):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        # Multiset of pairs; conflicts repaired by swaps below.
        pairs = [
            (stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)
        ]
        edge_set = set()
        bad: list = []
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if u == v or key in edge_set:
                bad.append((u, v))
            else:
                edge_set.add(key)
        swaps_left = 200 * (len(bad) + 1)
        good = list(edge_set)
        while bad and swaps_left > 0 and good:
            swaps_left -= 1
            u, v = bad[-1]
            x, y = good[rng.randrange(len(good))]
            if rng.random() < 0.5:
                x, y = y, x
            # Proposed replacement pairs: (u, x) and (v, y).
            a = (min(u, x), max(u, x))
            b = (min(v, y), max(v, y))
            if u == x or v == y or a in edge_set or b in edge_set or a == b:
                continue
            bad.pop()
            edge_set.remove((min(x, y), max(x, y)))
            edge_set.add(a)
            edge_set.add(b)
            good = list(edge_set)
        if not bad:
            g = Graph()
            g.add_vertices(range(n))
            for u, v in edge_set:
                g.add_edge(u, v, 1.0)
            return g
    raise GraphError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def barabasi_albert_graph(n: int, m: int, seed: RandomLike = None) -> Graph:
    """Barabási–Albert preferential attachment graph.

    Starts from a star on ``m + 1`` vertices; each new vertex attaches to
    ``m`` distinct existing vertices chosen proportionally to degree.
    """
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = ensure_rng(seed)
    g = Graph()
    g.add_vertices(range(n))
    # repeated-vertex list implements degree-proportional sampling
    repeated = []
    for v in range(1, m + 1):
        g.add_edge(0, v, 1.0)
        repeated.extend([0, v])
    for v in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            g.add_edge(v, t, 1.0)
            repeated.extend([v, t])
    return g


def random_geometric_graph(
    n: int, radius: float, seed: RandomLike = None, euclidean_weights: bool = True
) -> Graph:
    """Random geometric graph on the unit square.

    Points are uniform in [0,1]^2; vertices within ``radius`` are joined.
    With ``euclidean_weights`` the edge weight is the Euclidean distance —
    this exercises the general-edge-length path of the Section 2 machinery.
    """
    rng = ensure_rng(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    g = Graph()
    g.add_vertices(range(n))
    r2 = radius * radius
    for u in range(n):
        xu, yu = points[u]
        for v in range(u + 1, n):
            xv, yv = points[v]
            d2 = (xu - xv) ** 2 + (yu - yv) ** 2
            if d2 <= r2:
                w = math.sqrt(d2) if euclidean_weights else 1.0
                g.add_edge(u, v, max(w, 1e-9))
    return g


def connected_gnp_graph(
    n: int,
    p: float,
    seed: RandomLike = None,
    weight_range: Optional[Tuple[float, float]] = None,
    max_tries: int = 200,
) -> Graph:
    """Sample ``G(n, p)`` conditioned on connectivity (rejection sampling)."""
    from .paths import is_connected

    rng = ensure_rng(seed)
    for _ in range(max_tries):
        g = gnp_random_graph(n, p, seed=rng, weight_range=weight_range)
        if is_connected(g):
            return g
    raise GraphError(
        f"could not sample a connected G({n}, {p}) in {max_tries} attempts; increase p"
    )


# ---------------------------------------------------------------------------
# Adversarial instances from the paper
# ---------------------------------------------------------------------------


def knapsack_gap_gadget(r: int, expensive_cost: float = 1000.0) -> DiGraph:
    """The Section 3.2 gadget showing LP (3) has gap Ω(r) without KC cuts.

    Vertices: ``'u'``, ``'v'``, and midpoints ``('w', i)`` for i in [r].
    Arcs: (u, v) with large cost ``expensive_cost``, and unit-cost arcs
    (u, w_i) and (w_i, v) for every i.

    The set of all midpoints is a valid fault set, so any r-fault-tolerant
    2-spanner must buy the expensive edge (OPT >= expensive_cost), while the
    plain LP (3) pays only ``expensive_cost / (r + 1) + 2r``.
    """
    if r < 1:
        raise GraphError(f"gadget needs r >= 1, got {r}")
    g = DiGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    g.add_edge("u", "v", expensive_cost)
    for i in range(r):
        w = ("w", i)
        g.add_edge("u", w, 1.0)
        g.add_edge(w, "v", 1.0)
    return g


def layered_fault_graph(width: int, layers: int, weight: float = 1.0) -> Graph:
    """Layered graph with ``width`` parallel vertex-disjoint paths.

    Consecutive layers are completely joined. Removing up to ``width - 1``
    vertices per cut still leaves a path, which makes this a convenient
    stress instance for fault-tolerance verifiers: its exact tolerance is
    easy to reason about.
    """
    if width < 1 or layers < 2:
        raise GraphError(f"need width >= 1 and layers >= 2, got {width}, {layers}")
    g = Graph()
    for layer in range(layers):
        for i in range(width):
            g.add_vertex((layer, i))
    for layer in range(layers - 1):
        for i in range(width):
            for j in range(width):
                g.add_edge((layer, i), (layer + 1, j), weight)
    return g
