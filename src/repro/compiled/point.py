"""One target-stopped Dijkstra in C: the spanner service's distance read.

:func:`point_dist` answers ``d(s, t)`` on a graph stored as growable
rows — vertex ``v``'s out-entries are ``nbr/wt[start[v] : start[v] +
length[v]]`` — which is the layout :class:`repro.serve.rows.SpannerRows`
edits in place on every spanner write, so no snapshot is rebuilt between
a write and the next read. The search is ``CSRGraph.dijkstra_idx``'s
with ``target=``: unidirectional, relaxing on ``nd < dist[u]``, stopping
when ``t`` settles. Its distance is therefore the same IEEE-754 sum the
dict reference returns, not merely a close one.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from . import require_compiled
from .greedy import _ptr_f64, _ptr_i64


def point_dist(start, length, nbr, wt, s: int, t: int) -> float:
    """``d(s, t)`` over rows ``start``/``length`` into ``nbr``/``wt``.

    Returns ``0.0`` when ``s == t`` and ``inf`` when ``t`` is
    unreachable. The checks here are O(1): ``s`` and ``t`` must index
    the ``n = len(start)`` rows and the array lengths must agree. The
    row contents are trusted, as the C side indexes them without checks:
    every row must lie inside ``nbr``/``wt`` and every entry must be a
    vertex index below ``n``.
    """
    lib = require_compiled()
    start = np.ascontiguousarray(start, dtype=np.int64)
    length = np.ascontiguousarray(length, dtype=np.int64)
    nbr = np.ascontiguousarray(nbr, dtype=np.int64)
    wt = np.ascontiguousarray(wt, dtype=np.float64)
    n, s, t = start.shape[0], int(s), int(t)
    if length.shape[0] != n or nbr.shape[0] != wt.shape[0]:
        raise ValueError("point_dist: row or entry arrays differ in length")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"point_dist: vertex index out of range [0, {n})")
    out = ctypes.c_double(math.inf)
    if lib.repro_point_dist(
        n, _ptr_i64(start), _ptr_i64(length), _ptr_i64(nbr), _ptr_f64(wt),
        s, t, ctypes.byref(out),
    ) < 0:  # pragma: no cover - C-side allocation failure
        raise MemoryError("compiled point-distance kernel ran out of memory")
    return out.value
