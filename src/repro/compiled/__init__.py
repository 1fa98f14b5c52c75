"""Optional compiled (C) backend for the last interpreter-bound hot loops.

One C99 source file (``_kernels.c``), which this module compiles on
demand with the system C compiler and loads through :mod:`ctypes`,
holds four entry points:

* the greedy spanner's bounded bidirectional Dijkstra
  (:mod:`repro.spanners.greedy`, wrapped by :mod:`repro.compiled.greedy`);
* whole batches of Theorem 2.1 iterations — survivor draws, masked
  greedy passes and the union — for the conversion
  (:mod:`repro.core.conversion`, wrapped by
  :mod:`repro.compiled.oversample`);
* the same bounded search, batched over one CSR graph, for the
  fault-set verifier (:mod:`repro.core.verify`, wrapped by
  :mod:`repro.compiled.pairs`);
* a point-to-point Dijkstra over write-maintained rows and
  caller-owned search state, which answers the spanner service's
  ``QUERY_DIST`` (:mod:`repro.serve.rows`, wrapped by
  :mod:`repro.compiled.point`).

Thread rule: only the Theorem 2.1 batch runs threads. It splits its
iterations across ``min(CPUs this process may use, iterations in the
call)`` threads, which it creates and joins inside the one ctypes call
(ctypes releases the GIL for it): no thread touches a Python object, no
Python code runs until all are joined, and every output is identical
at any thread count. There is no knob for the count; ``taskset`` or any
other affinity mask bounds it.

No python package dependency is involved: the backend is *available*
exactly when a C compiler (``cc``/``gcc``/``clang``) is on ``PATH`` or
a previously built library is already cached.

Dispatch contract (the ``method="compiled"`` tier):

* ``method="auto"`` selects the compiled tier only when
  :func:`compiled_available` is true — otherwise it falls back silently
  to the existing paths, so machines without a compiler lose nothing.
* ``method="compiled"`` requested explicitly on a machine without the
  backend raises :class:`repro.errors.CompiledBackendUnavailable` with
  the concrete reason (no compiler, build failure, disabled).
* ``method="dict"`` everywhere remains the pinned reference; the
  property tests in ``tests/test_compiled.py`` pin compiled-vs-dict
  outputs identical per seed.

Environment switches:

* ``REPRO_DISABLE_COMPILED`` — any non-empty value disables the backend
  (used by the CI no-backend leg and the fallback subprocess tests).
* ``REPRO_COMPILED_CACHE`` — overrides the build-cache directory.

The built library is cached under a name keyed by the SHA-256 of the C
source and the compiler flags, so editing ``_kernels.c`` or
:data:`_CFLAGS` transparently triggers a rebuild and two interpreter
versions can share one cache. Cache directory
candidates are tried in order: the explicit override, a ``_build``
directory next to this package, ``$XDG_CACHE_HOME/repro-compiled``
(default ``~/.cache/repro-compiled``), and finally a per-user tempdir.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional

from ..errors import CompiledBackendUnavailable

__all__ = [
    "compiled_available",
    "compiled_unavailable_reason",
    "require_compiled",
    "ENV_DISABLE",
    "ENV_CACHE",
]

ENV_DISABLE = "REPRO_DISABLE_COMPILED"
ENV_CACHE = "REPRO_COMPILED_CACHE"

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")

#: Compiler invocation: C99, position independent, shared, with POSIX
#: threads. -ffp-contract=off forbids fused multiply-add contraction so
#: every float operation rounds exactly like the numpy/pure-python
#: reference — the compiled-vs-dict output pinning depends on it.
_CFLAGS = [
    "-O2", "-fPIC", "-shared", "-std=c99", "-pthread", "-ffp-contract=off",
]

_lock = threading.Lock()
_state = {"checked": False, "lib": None, "reason": None}


def _cache_candidates() -> List[str]:
    explicit = os.environ.get(ENV_CACHE)
    if explicit:
        return [explicit]
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build"),
        os.path.join(xdg, "repro-compiled"),
        os.path.join(
            tempfile.gettempdir(), f"repro-compiled-{os.getuid()}"
            if hasattr(os, "getuid")
            else "repro-compiled"
        ),
    ]


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _source_key() -> str:
    """Cache key of the library: the C source and the flags that build it."""
    digest = hashlib.sha256()
    with open(_SOURCE, "rb") as handle:
        digest.update(handle.read())
    digest.update("\0".join(["", *_CFLAGS]).encode("utf-8"))
    return digest.hexdigest()[:16]


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    lib.repro_greedy_run_edge_ids.restype = i64
    lib.repro_greedy_run_edge_ids.argtypes = [
        i64, ctypes.c_int,          # n, directed
        p_i64, i64,                 # edge_ids, num_ids
        p_i64, p_i64, p_f64,        # edge_u, edge_v, edge_w
        f64, i64,                   # k, max_edges (-1 = uncapped)
        p_i64,                      # chosen_out
    ]
    lib.repro_theorem21_batch.restype = i64
    lib.repro_theorem21_batch.argtypes = [
        i64, ctypes.c_int, ctypes.c_int,  # n, directed, edge_kind
        p_i64, i64,                 # sorted ids, m
        p_i64, p_i64, p_f64,        # edge_u, edge_v, edge_w
        f64, f64, i64,              # k, p, iterations
        ctypes.POINTER(ctypes.c_uint64), p_u8,  # seeds or masks (one NULL)
        i64, p_u8,                  # threads, union mask (in/out)
        p_i64, p_i64, p_i64, p_i64,  # survivors, chosen, union counts, first
    ]
    lib.repro_pairs_within.restype = i64
    lib.repro_pairs_within.argtypes = [
        i64, p_i64, p_i64, p_f64,   # n, indptr, nbr, wt
        i64, p_i64, p_i64, p_f64,   # num_q, qu, qv, bound
        p_u8,                       # out
    ]
    lib.repro_point_dist.restype = f64
    lib.repro_point_dist.argtypes = [
        ctypes.c_void_p,            # rows + search state (compiled.point)
        i64, ctypes.c_int,          # gen, bidirectional
        i64, i64,                   # s, t
    ]
    return lib


def _build_and_load() -> ctypes.CDLL:
    libname = f"repro_kernels_{_source_key()}.so"
    # A cached build from any earlier process (or another interpreter)
    # is loadable even when no compiler is installed anymore.
    for cache in _cache_candidates():
        path = os.path.join(cache, libname)
        if os.path.exists(path):
            return _declare(ctypes.CDLL(path))
    compiler = _find_compiler()
    if compiler is None:
        raise CompiledBackendUnavailable(
            "no C compiler found on PATH (looked for cc, gcc, clang); "
            "install one, or use method='auto'/'csr'/'dict'"
        )
    last_error: Optional[Exception] = None
    for cache in _cache_candidates():
        path = os.path.join(cache, libname)
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
        except OSError as exc:  # unwritable candidate: try the next one
            last_error = exc
            continue
        try:
            proc = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp, _SOURCE, "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                detail = (proc.stderr or proc.stdout or "").strip()
                raise CompiledBackendUnavailable(
                    f"building the compiled kernels failed "
                    f"({compiler} exited {proc.returncode}): {detail[:500]}"
                )
            os.replace(tmp, path)  # atomic: concurrent builders converge
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return _declare(ctypes.CDLL(path))
    raise CompiledBackendUnavailable(
        f"no writable cache directory for the compiled kernels "
        f"(tried {_cache_candidates()!r}): {last_error}"
    )


def _probe() -> None:
    if _state["checked"]:
        return
    with _lock:
        if _state["checked"]:
            return
        if os.environ.get(ENV_DISABLE):
            _state["reason"] = (
                f"the compiled backend is disabled via {ENV_DISABLE}"
            )
        else:
            try:
                _state["lib"] = _build_and_load()
            except Exception as exc:
                _state["reason"] = str(exc) or type(exc).__name__
        _state["checked"] = True


def compiled_available() -> bool:
    """Whether the compiled tier can serve (builds/loads on first call).

    The probe result is memoized for the process lifetime; set
    ``REPRO_DISABLE_COMPILED`` *before* the first call to opt out.
    """
    _probe()
    return _state["lib"] is not None


def compiled_unavailable_reason() -> Optional[str]:
    """Why the backend is unavailable, or ``None`` when it is ready."""
    _probe()
    return _state["reason"]


def require_compiled() -> ctypes.CDLL:
    """The loaded kernel library; raises when the backend is unavailable.

    This is the single gate behind every explicit ``method="compiled"``
    request: the raised :class:`~repro.errors.CompiledBackendUnavailable`
    names the concrete obstacle (no compiler, failed build, disabled via
    environment) and the working alternatives.
    """
    _probe()
    lib = _state["lib"]
    if lib is None:
        raise CompiledBackendUnavailable(
            f"method='compiled' requires the compiled kernel backend, "
            f"which is unavailable: {_state['reason']}; "
            f"use method='auto' (falls back silently) or 'csr'/'dict'"
        )
    return lib
