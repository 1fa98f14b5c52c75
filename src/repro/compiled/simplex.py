"""Compiled drop-in for the :class:`repro.lp.simplex._Tableau` pivot loop.

:func:`simplex_run` mutates the caller's tableau arrays in place exactly
like ``_Tableau.run`` does — same Bland entering scan with the
basic-column skip, same ratio test and tie-break, same unbounded
verdict, same ``_TOL``/``_DUAL_TOL`` thresholds (passed in, never
duplicated here) — and returns the same ``"optimal"``/``"unbounded"``
status vocabulary, with the iteration limit reported as ``None`` so the
caller raises its own :class:`~repro.errors.SolverLimit`.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional

import numpy as np

from . import require_compiled

_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_I64 = ctypes.POINTER(ctypes.c_int64)


def simplex_run(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: List[int],
    max_iterations: int,
    entering_tol: float,
    tol: float,
    dual_tol: float,
) -> Optional[str]:
    """Run the compiled pivot loop on a standard-form tableau.

    ``a`` (m x n), ``b`` (m) and ``basis`` (m) are updated in place;
    ``a`` and ``b`` must be C-contiguous float64 (the caller's
    ``_Tableau`` constructor guarantees it). Returns ``"optimal"``,
    ``"unbounded"``, or ``None`` when ``max_iterations`` was exhausted.
    """
    lib = require_compiled()
    m, n = a.shape
    basis_arr = np.asarray(basis, dtype=np.int64)
    c_arr = np.ascontiguousarray(c, dtype=np.float64)
    status = lib.repro_simplex_run(
        int(m),
        int(n),
        a.ctypes.data_as(_P_F64),
        b.ctypes.data_as(_P_F64),
        c_arr.ctypes.data_as(_P_F64),
        basis_arr.ctypes.data_as(_P_I64),
        int(max_iterations),
        float(entering_tol),
        float(tol),
        float(dual_tol),
    )
    if status == -2:  # pragma: no cover - C-side allocation failure
        raise MemoryError("compiled simplex kernel ran out of memory")
    basis[:] = basis_arr.tolist()
    if status == 1:
        return "optimal"
    if status == 0:
        return "unbounded"
    return None
