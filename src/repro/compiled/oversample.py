"""Theorem 2.1 in one C call: survivor draws, masks, greedy passes and union.

:func:`oversample` runs a batch of the conversion's iterations through
``repro_theorem21_batch``. Iteration ``i`` seeds MT19937 from
``seeds[i]`` exactly as ``random.Random(seeds[i])`` does and keeps each
fault unit whose ``random() < p`` (or keeps what ``masks[i]`` flags, for
scenario replay), runs the greedy kernel's pass over the weight-sorted
edge ids that survive, and ORs the chosen ids into the caller's union
byte mask. The outputs are the interpreted per-iteration loop's
(:mod:`repro.core.conversion`), bit for bit.

The call splits its iterations across ``min(usable_cpus(), iterations)``
threads that it creates and joins itself while ctypes holds the GIL
released. Each iteration writes only its own output slots and an
edge's first iteration is a minimum, so no output depends on the thread
count.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional, Sequence, Tuple

import numpy as np

from . import require_compiled
from .greedy import _ptr_f64, _ptr_i64

_P_U8 = ctypes.POINTER(ctypes.c_uint8)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def oversample(
    n: int,
    directed: bool,
    kind: str,
    sorted_ids: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    k: float,
    p: float,
    union: np.ndarray,
    seeds: Optional[Sequence[int]] = None,
    masks: Optional[np.ndarray] = None,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one batch of Theorem 2.1 iterations on an indexed host.

    ``sorted_ids`` lists every edge id once, by weight (stable), and
    ``edge_u``/``edge_v``/``edge_w`` index the host's ``n`` vertices. A fault
    unit is a vertex (``kind="vertex"``) or an edge id (``"edge"``).
    Exactly one of ``seeds`` (one child seed below ``2**64`` per
    iteration) and ``masks`` (a bool array, one row of survivor flags
    per iteration) is given. ``union`` is the uint8 union mask, one byte
    per edge id, updated in place.

    Returns ``(size, survivors, chosen, union_counts, first)``: the
    union's size; per iteration the surviving unit count, the chosen id
    count and the union's size after it; and per edge id the first
    iteration of this batch that chose it, or -1 when the union held it
    before the call or no iteration chose it.
    """
    lib = require_compiled()
    sorted_ids = np.ascontiguousarray(sorted_ids, dtype=np.int64)
    edge_u = np.ascontiguousarray(edge_u, dtype=np.int64)
    edge_v = np.ascontiguousarray(edge_v, dtype=np.int64)
    edge_w = np.ascontiguousarray(edge_w, dtype=np.float64)
    m = edge_u.shape[0]
    if kind not in ("vertex", "edge"):
        raise ValueError(f"oversample: kind must be 'vertex' or 'edge', got {kind!r}")
    if not (
        isinstance(union, np.ndarray) and union.dtype == np.uint8
        and union.ndim == 1 and union.flags.c_contiguous
        and union.flags.writeable
    ):
        raise ValueError("oversample: union must be a writable contiguous uint8 array")
    if not edge_v.shape[0] == edge_w.shape[0] == sorted_ids.shape[0] == union.shape[0] == m:
        raise ValueError("oversample: edge arrays differ in length")
    # The C side indexes without checks: reject what would read out of bounds.
    for idx, bound in ((sorted_ids, m), (edge_u, n), (edge_v, n)):
        if idx.size and (idx.min() < 0 or idx.max() >= bound):
            raise ValueError("oversample: index out of range")
    if m and np.bincount(sorted_ids, minlength=m).max() > 1:
        raise ValueError("oversample: sorted_ids must be a permutation of the edge ids")
    units = n if kind == "vertex" else m
    if (seeds is None) == (masks is None):
        raise ValueError("oversample: give exactly one of seeds and masks")
    if seeds is not None:
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        iterations = seeds.shape[0]
        seeds_ptr, masks_ptr = seeds.ctypes.data_as(_P_U64), None
    else:
        masks = np.ascontiguousarray(masks, dtype=np.bool_)
        if masks.ndim != 2 or masks.shape[1] != units:
            raise ValueError(f"oversample: masks must have shape (iterations, {units})")
        iterations = masks.shape[0]
        seeds_ptr, masks_ptr = None, masks.view(np.uint8).ctypes.data_as(_P_U8)
    survivors = np.empty(iterations, dtype=np.int64)
    chosen = np.empty(iterations, dtype=np.int64)
    union_counts = np.empty(iterations, dtype=np.int64)
    first = np.empty(m, dtype=np.int64)
    size = lib.repro_theorem21_batch(
        n, 1 if directed else 0, 1 if kind == "edge" else 0,
        _ptr_i64(sorted_ids), m,
        _ptr_i64(edge_u), _ptr_i64(edge_v), _ptr_f64(edge_w),
        float(k), float(p), iterations,
        seeds_ptr, masks_ptr,
        min(usable_cpus(), max(iterations, 1)), union.ctypes.data_as(_P_U8),
        _ptr_i64(survivors), _ptr_i64(chosen), _ptr_i64(union_counts),
        _ptr_i64(first),
    )
    if size < 0:  # pragma: no cover - C-side allocation failure
        raise MemoryError("compiled Theorem 2.1 batch ran out of memory")
    return size, survivors, chosen, union_counts, first
