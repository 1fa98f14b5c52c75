"""Batched bounded reachability on one CSR graph: the fault-set verifier's kernel.

:func:`pairs_within` answers many "is ``d(u, v) <= bound``?" queries on
one undirected CSR graph in a single C call, each with the greedy
kernel's bounded bidirectional search. A half-edge of weight ``+inf`` is
never relaxed, so the weight vector of a masked
:class:`~repro.graph.csr.SurvivorView` (``masked_weights()``) runs the
queries on the survivor subgraph without copying the index arrays.
"""

from __future__ import annotations

import ctypes

import numpy as np

from . import require_compiled
from .greedy import _ptr_f64, _ptr_i64


def pairs_within(indptr, nbr, wt, qu, qv, bound) -> np.ndarray:
    """Boolean per query ``q``: ``d(qu[q], qv[q]) <= bound[q]``.

    ``indptr``/``nbr``/``wt`` are the half-edge CSR of an undirected
    graph, ``qu``/``qv`` vertex indices into it. The answer is a boolean,
    not a distance, so each search stops at the first meeting of its two
    frontiers within the bound.
    """
    lib = require_compiled()
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    nbr = np.ascontiguousarray(nbr, dtype=np.int64)
    wt = np.ascontiguousarray(wt, dtype=np.float64)
    qu = np.ascontiguousarray(qu, dtype=np.int64)
    qv = np.ascontiguousarray(qv, dtype=np.int64)
    bound = np.ascontiguousarray(bound, dtype=np.float64)
    # The C side indexes without checks: reject what would read out of bounds.
    n, num_q = indptr.shape[0] - 1, qu.shape[0]
    if (
        n < 0 or indptr[0] != 0 or indptr[-1] != nbr.shape[0]
        or (np.diff(indptr) < 0).any() or wt.shape[0] != nbr.shape[0]
        or not qv.shape[0] == bound.shape[0] == num_q
    ):
        raise ValueError("pairs_within: malformed CSR or query arrays")
    for idx in (nbr, qu, qv):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("pairs_within: vertex index out of range")
    out = np.zeros(num_q, dtype=np.uint8)
    failed = lib.repro_pairs_within(
        n, _ptr_i64(indptr), _ptr_i64(nbr), _ptr_f64(wt),
        num_q, _ptr_i64(qu), _ptr_i64(qv), _ptr_f64(bound),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
    )
    if failed < 0:  # pragma: no cover - C-side allocation failure
        raise MemoryError("compiled pairs kernel ran out of memory")
    return out.view(np.bool_)
