"""Compiled drop-in for :class:`repro.spanners.greedy.IndexedGreedyKernel`.

Same constructor, same ``run``/``run_edge_ids`` surface, same outputs:
the C kernel ports the bounded bidirectional Dijkstra operation-for-
operation (identical ``_EPS`` slack, identical relaxation arithmetic),
so the keep/skip decisions — and therefore the chosen edge-id lists —
are pinned identical to the python kernel. The greedy spanner's
``method="compiled"`` runs on it; the Theorem 2.1 conversion instead
runs whole batches of passes in one call
(:mod:`repro.compiled.oversample`), on the same C pass function.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Tuple

import numpy as np

from . import require_compiled

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)


def _ptr_i64(arr: np.ndarray):
    return arr.ctypes.data_as(_P_I64)


def _ptr_f64(arr: np.ndarray):
    return arr.ctypes.data_as(_P_F64)


class CompiledGreedyKernel:
    """Greedy-pass state backed by the compiled C kernel.

    Mirrors :class:`~repro.spanners.greedy.IndexedGreedyKernel`: the
    same constructor and ``run``/``run_edge_ids`` surface, and the same
    chosen ids.
    """

    __slots__ = ("n", "directed", "_lib")

    def __init__(self, n: int, directed: bool):
        self.n = n
        self.directed = directed
        self._lib = require_compiled()

    def run(
        self,
        edges: List[Tuple[int, int, float]],
        k: float,
        max_edges: Optional[int] = None,
    ) -> List[Tuple[int, int, float]]:
        """Greedy pass over ``edges`` (already sorted by weight)."""
        edge_u = [e[0] for e in edges]
        edge_v = [e[1] for e in edges]
        edge_w = [e[2] for e in edges]
        chosen = self.run_edge_ids(
            np.arange(len(edges), dtype=np.int64), edge_u, edge_v, edge_w, k,
            max_edges=max_edges,
        )
        return [edges[e] for e in chosen]

    def run_edge_ids(
        self,
        edge_ids,
        edge_u,
        edge_v,
        edge_w,
        k: float,
        max_edges: Optional[int] = None,
    ) -> List[int]:
        """Greedy pass addressing edges by id into parallel endpoint arrays.

        ``edge_ids`` must come pre-sorted by weight. Returns the chosen
        ids in pick order as plain python ints, exactly like the
        interpreted kernel.
        """
        ids = np.ascontiguousarray(edge_ids, dtype=np.int64)
        num_ids = int(ids.shape[0])
        if num_ids == 0:
            return []
        u = np.ascontiguousarray(edge_u, dtype=np.int64)
        v = np.ascontiguousarray(edge_v, dtype=np.int64)
        w = np.ascontiguousarray(edge_w, dtype=np.float64)
        out = np.empty(num_ids, dtype=np.int64)
        count = self._lib.repro_greedy_run_edge_ids(
            self.n,
            1 if self.directed else 0,
            _ptr_i64(ids),
            num_ids,
            _ptr_i64(u),
            _ptr_i64(v),
            _ptr_f64(w),
            float(k),
            -1 if max_edges is None else int(max_edges),
            _ptr_i64(out),
        )
        if count < 0:  # pragma: no cover - C-side allocation failure
            raise MemoryError("compiled greedy kernel ran out of memory")
        return out[:count].tolist()
