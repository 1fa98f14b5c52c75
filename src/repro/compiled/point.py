"""Point-to-point Dijkstra in C: the spanner service's distance read.

:class:`PointSearch` answers ``d(s, t)`` on a graph stored as growable
rows — vertex ``v``'s out-entries are ``nbr/wt[start[v] : start[v] +
length[v]]`` — which is the layout :class:`repro.serve.rows.SpannerRows`
edits in place on every spanner write, so no snapshot is rebuilt between
a write and the next read. The search state is the caller's as well:
per row a forward and a backward distance, each with a generation
stamp, and a slot belongs to the current query only when its stamp
equals the query's generation. A query therefore touches only the
vertices it labels, and the array pointers are converted once per
binding, not once per query.

The kernel runs one of two searches, and both return the reference's
double, not merely a close one:

* one-sided: ``CSRGraph.dijkstra_idx``'s with ``target=`` —
  relaxing on ``nd < dist[u]`` and stopping when ``t`` settles — whose
  distance is the same IEEE-754 sum the dict reference returns, for any
  nonnegative weights and for directed rows;
* bidirectional: balls grown from both ends until the two frontier
  minima sum to at least the best meeting. It adds weights in another
  order, so the caller selects it only where every sum is exact:
  undirected rows, integral weights and ``2 n max_weight <= 2**53``.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from . import require_compiled
from .greedy import _P_F64, _P_I64


class _Rows(ctypes.Structure):
    """``point_rows_t`` in ``_kernels.c``: the bound array pointers."""

    _fields_ = [
        ("start", _P_I64), ("len", _P_I64), ("nbr", _P_I64), ("wt", _P_F64),
        ("dist_f", _P_F64), ("stamp_f", _P_I64),
        ("dist_b", _P_F64), ("stamp_b", _P_I64),
    ]


class PointSearch:
    """``d(s, t)`` searches over one binding of rows and search state.

    ``start``, ``length`` and the stamps ``stamp_f``/``stamp_b`` are
    int64, the distances ``dist_f``/``dist_b`` float64, one slot per
    row; ``nbr`` (int64) and ``wt`` (float64) hold the entries. Each must
    already be a contiguous 1-d array of its dtype: the pointers are
    bound once, and a converted copy would miss the caller's later
    writes. A caller that replaces an array binds a new search.

    The checks are O(1): the array shapes here, the vertex range per
    query. The contents are trusted, as the C side indexes them without
    checks: every row must lie inside ``nbr``/``wt``, every entry must
    be a row index, and every stamp must be below the query's ``gen``.
    """

    def __init__(self, start, length, nbr, wt, dist_f, stamp_f, dist_b, stamp_b):
        lib = require_compiled()
        arrays = (start, length, nbr, wt, dist_f, stamp_f, dist_b, stamp_b)
        for arr, (name, ptr) in zip(arrays, _Rows._fields_):
            dtype = np.dtype(np.float64 if ptr is _P_F64 else np.int64)
            if not (
                isinstance(arr, np.ndarray) and arr.dtype == dtype
                and arr.ndim == 1 and arr.flags.c_contiguous
            ):
                raise ValueError(
                    f"PointSearch: {name} must be a contiguous 1-d "
                    f"{dtype.name} array, got {arr!r:.60}"
                )
        rows = start.shape[0]
        per_row = (length, dist_f, stamp_f, dist_b, stamp_b)
        if any(a.shape[0] != rows for a in per_row) or nbr.shape[0] != wt.shape[0]:
            raise ValueError("PointSearch: row or entry arrays differ in length")
        self.num_rows = rows
        self._arrays = arrays  # the C side reads them: keep them alive
        self._bound = _Rows(*(
            arr.ctypes.data_as(ptr) for arr, (_name, ptr) in zip(arrays, _Rows._fields_)
        ))
        self._run = functools.partial(
            lib.repro_point_dist, ctypes.byref(self._bound)
        )

    def __call__(self, s: int, t: int, gen: int, bidirectional: bool) -> float:
        """``d(s, t)``: ``0.0`` when ``s == t``, ``inf`` when unreachable.

        ``gen`` must exceed every stamp in the bound arrays; the search
        leaves its labels stamped ``gen``. ``bidirectional`` selects the
        two-ended search, which the caller may set only under the
        exactness condition in the module docstring.
        """
        if not (0 <= s < self.num_rows and 0 <= t < self.num_rows):
            raise ValueError(
                f"PointSearch: vertex index out of range [0, {self.num_rows})"
            )
        dist = self._run(gen, bidirectional, s, t)
        if dist < 0:  # pragma: no cover - C-side allocation failure
            raise MemoryError("compiled point-distance kernel ran out of memory")
        return dist
