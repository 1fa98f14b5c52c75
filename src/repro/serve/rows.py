"""Index-space adjacency rows of the served spanner, edited on every write.

:class:`SpannerRows` mirrors the dict spanner that
:class:`repro.serve.SpannerService` maintains, in the flat layout the C
kernel :func:`repro.compiled.point.point_dist` reads: per vertex index a
``start``/``len``/``cap`` triple, per entry a neighbour index ``nbr``
and a weight ``wt``. An undirected edge is stored in both endpoints'
rows, an arc only in its tail's row. Writes edit the rows in place, so
the ``QUERY_DIST`` after a write rebuilds no snapshot:

* adding an entry appends it to its row; a full row first moves to the
  end of the arrays with doubled capacity;
* removing an entry swaps it with the row's last entry and shrinks the
  row;
* a new vertex gets a fresh index with an empty row, and so does a
  label that was deleted and is added again;
* a deleted vertex keeps an empty row under its retired index. Entries
  in other rows that still point at it are harmless: the retired row
  has no out-entries, and a query never names it (the service rejects a
  missing label before the kernel). So deletion needs no reverse scan.

Moved rows and deleted vertices leave dead slots behind. When the dead
slots outnumber the live entries, the rows are rebuilt from the dict
spanner, which bounds the arrays at a constant factor of the spanner.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Tuple

import numpy as np

from ..compiled.point import point_dist
from ..graph.graph import BaseGraph

Vertex = Hashable


def _grown(arr: np.ndarray, size: int) -> np.ndarray:
    """``arr`` with room for ``size`` items (doubling; new slots zeroed)."""
    if size <= arr.shape[0]:
        return arr
    out = np.zeros(max(size, 2 * arr.shape[0]), dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class SpannerRows:
    """The rows of ``graph``; callers repeat every write of ``graph`` here.

    The mutators take the :class:`~repro.graph.graph.BaseGraph` method
    names and arguments, and each must run *after* the same write on
    ``graph`` (a repack reads it). ``add_edge`` requires the edge to be
    new, as the service's write paths guarantee.
    """

    def __init__(self, graph: BaseGraph):
        self.load(graph)

    def load(self, graph: BaseGraph) -> None:
        """Rebuild the rows from ``graph``: fresh indices, no dead slots."""
        self.graph = graph
        self._index: Dict[Vertex, int] = {
            v: i for i, v in enumerate(graph.vertices())
        }
        index = self._index
        items = graph.successor_items if graph.directed else graph.neighbor_items
        nbr: List[int] = []
        wt: List[float] = []
        length: List[int] = []
        for v in index:
            before = len(nbr)
            for u, w in items(v):
                nbr.append(index[u])
                wt.append(w)
            length.append(len(nbr) - before)
        self._n = len(index)
        self._len = np.array(length, dtype=np.int64)
        self._cap = self._len.copy()
        self._start = np.zeros(self._n, dtype=np.int64)
        np.cumsum(self._len[:-1], out=self._start[1:])
        self._nbr = np.array(nbr, dtype=np.int64)
        self._wt = np.array(wt, dtype=np.float64)
        self._end = self._live = len(nbr)
        self._dead = 0

    # -- writes (after the same write on the dict graph) ----------------

    def add_vertex(self, v: Vertex) -> None:
        if v in self._index:
            return
        self._index[v] = self._n
        self._n += 1
        self._start = _grown(self._start, self._n)
        self._len = _grown(self._len, self._n)
        self._cap = _grown(self._cap, self._n)

    def remove_vertex(self, v: Vertex) -> None:
        i = self._index.pop(v)
        self._live -= int(self._len[i])
        self._dead += int(self._cap[i])
        self._len[i] = self._cap[i] = 0
        self._repack_if_sparse()

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        self.add_vertex(u)
        self.add_vertex(v)
        i, j = self._index[u], self._index[v]
        self._append(i, j, weight)
        if not self.graph.directed:
            self._append(j, i, weight)
        self._repack_if_sparse()

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        i, j = self._index[u], self._index[v]
        self._delete(i, j)
        if not self.graph.directed:
            self._delete(j, i)

    def _append(self, i: int, j: int, weight: float) -> None:
        start, length, cap = (
            int(self._start[i]), int(self._len[i]), int(self._cap[i])
        )
        if length == cap:
            new_cap = max(2 * cap, 4)
            end = self._end
            self._nbr = _grown(self._nbr, end + new_cap)
            self._wt = _grown(self._wt, end + new_cap)
            self._nbr[end : end + length] = self._nbr[start : start + length]
            self._wt[end : end + length] = self._wt[start : start + length]
            self._dead += cap
            self._start[i] = start = end
            self._cap[i] = new_cap
            self._end = end + new_cap
        self._nbr[start + length] = j
        self._wt[start + length] = weight
        self._len[i] = length + 1
        self._live += 1

    def _delete(self, i: int, j: int) -> None:
        start, length = int(self._start[i]), int(self._len[i])
        hit = start + int(np.flatnonzero(self._nbr[start : start + length] == j)[0])
        last = start + length - 1
        self._nbr[hit] = self._nbr[last]
        self._wt[hit] = self._wt[last]
        self._len[i] = length - 1
        self._live -= 1

    def _repack_if_sparse(self) -> None:
        if self._dead > self._live:
            self.load(self.graph)

    # -- reads -----------------------------------------------------------

    def distance(self, u: Vertex, v: Vertex) -> float:
        """``d(u, v)`` in the spanner; ``inf`` when unreachable."""
        n = self._n
        return point_dist(
            self._start[:n], self._len[:n], self._nbr, self._wt,
            self._index[u], self._index[v],
        )

    def entries(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """``(u, v, w)`` per entry between live vertices, by label.

        An undirected edge yields both orientations. Entries pointing at
        retired indices are skipped, so the multiset equals the dict
        spanner's edges (both ways round for an undirected graph).
        """
        label = {i: v for v, i in self._index.items()}
        for v, i in self._index.items():
            start = int(self._start[i])
            for k in range(start, start + int(self._len[i])):
                j = int(self._nbr[k])
                if j in label:
                    yield v, label[j], float(self._wt[k])
