"""Index-space adjacency rows of the served spanner, edited on every write.

:class:`SpannerRows` mirrors the dict spanner that
:class:`repro.serve.SpannerService` maintains, in the flat layout the C
kernel behind :class:`repro.compiled.point.PointSearch` reads: per
vertex index a ``start``/``len``/``cap`` triple, per entry a neighbour
index ``nbr`` and a weight ``wt``. An undirected edge is stored in both
endpoints' rows, an arc only in its tail's row. Writes edit the rows in
place, so the ``QUERY_DIST`` after a write rebuilds no snapshot:

* adding an entry appends it to its row; a full row first moves to the
  end of the arrays with doubled capacity;
* removing an entry swaps it with the row's last entry and shrinks the
  row;
* a new vertex gets a fresh index with an empty row, and so does a
  label that was deleted and is added again;
* a deleted vertex keeps an empty row under its retired index. On
  undirected rows the entries that point at it are deleted too, one
  neighbour row each: otherwise both ends of a bidirectional search
  could label the retired index and meet at a vertex that no longer
  exists. Only directed rows keep such stale entries. The one-sided
  search that reads them is unharmed: the retired row has no
  out-entries, and a query never names it (the service rejects a
  missing label before the kernel).

The rows also own the kernel's search state: forward and backward
distances with generation stamps, one slot per index and grown with the
rows, and the generation counter each query advances. Every write keeps
a count of the entries whose weight is not an integer and a running
maximum weight, from which :attr:`SpannerRows.bidirectional` decides,
per query, whether the exact bidirectional search may run.

A load (or rebuild) gives each row a capacity equal to its length and
reserves as many free slots after the last row as it filled, so the
first rows that move land there without copying the arrays. Moved rows
and deleted vertices leave dead slots behind. When the dead slots
outnumber the live entries, the rows are rebuilt from the dict spanner,
which bounds the arrays at a constant factor of the spanner.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Tuple

import numpy as np

from ..compiled.point import PointSearch
from ..graph.graph import BaseGraph

Vertex = Hashable


def _grown(arr: np.ndarray, size: int) -> np.ndarray:
    """``arr`` with room for ``size`` items (doubling; new slots zeroed)."""
    if size <= arr.shape[0]:
        return arr
    out = np.zeros(max(size, 2 * arr.shape[0]), dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


#: The per-index arrays, grown together: the rows, then the search state.
_VERTEX_ARRAYS = (
    "_start", "_len", "_cap", "_dist_f", "_stamp_f", "_dist_b", "_stamp_b",
)


def _count_nonintegral(wt: np.ndarray) -> int:
    """How many of the weights ``wt`` are not integers (``inf`` is not)."""
    return int(np.count_nonzero(~np.isfinite(wt) | (np.floor(wt) != wt)))


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
        self._directed = graph.directed
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
        self._n = n = len(index)
        self._len = np.array(length, dtype=np.int64)
        self._cap = self._len.copy()
        self._start = np.zeros(n, dtype=np.int64)
        np.cumsum(self._len[:-1], out=self._start[1:])
        # As many free tail slots as entries: the first rows that outgrow
        # their capacity move into the tail without regrowing the arrays.
        self._end = self._live = end = len(nbr)
        self._nbr = np.zeros(2 * end, dtype=np.int64)
        self._wt = np.zeros(2 * end, dtype=np.float64)
        self._nbr[:end] = nbr
        self._wt[:end] = wt
        self._dead = 0
        self._nonintegral = _count_nonintegral(self._wt[:end])
        self._max_weight = max(wt, default=0.0)
        self._dist_f = np.zeros(n, dtype=np.float64)
        self._stamp_f = np.zeros(n, dtype=np.int64)
        self._dist_b = np.zeros(n, dtype=np.float64)
        self._stamp_b = np.zeros(n, dtype=np.int64)
        self._gen = 0
        self._search = None  # bound on the next read

    # -- writes (after the same write on the dict graph) ----------------

    def add_vertex(self, v: Vertex) -> None:
        if v in self._index:
            return
        self._index[v] = self._n
        self._n += 1
        if self._n > self._start.shape[0]:
            for name in _VERTEX_ARRAYS:
                setattr(self, name, _grown(getattr(self, name), self._n))
            self._search = None

    def remove_vertex(self, v: Vertex) -> None:
        i = self._index.pop(v)
        start, length = int(self._start[i]), int(self._len[i])
        self._nonintegral -= _count_nonintegral(self._wt[start : start + length])
        if not self._directed:
            for j in self._nbr[start : start + length].tolist():
                self._delete(j, i)
        self._live -= length
        self._dead += int(self._cap[i])
        self._len[i] = self._cap[i] = 0
        self._repack_if_sparse()

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        self.add_vertex(u)
        self.add_vertex(v)
        i, j = self._index[u], self._index[v]
        weight = float(weight)
        self._append(i, j, weight)
        if not self._directed:
            self._append(j, i, weight)
        self._repack_if_sparse()

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        i, j = self._index[u], self._index[v]
        self._delete(i, j)
        if not self._directed:
            self._delete(j, i)

    def _append(self, i: int, j: int, weight: float) -> None:
        start, length, cap = (
            int(self._start[i]), int(self._len[i]), int(self._cap[i])
        )
        if length == cap:
            new_cap = max(2 * cap, 4)
            end = self._end
            if end + new_cap > self._nbr.shape[0]:
                self._nbr = _grown(self._nbr, end + new_cap)
                self._wt = _grown(self._wt, end + new_cap)
                self._search = None
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
        if not weight.is_integer():
            self._nonintegral += 1
        self._max_weight = max(self._max_weight, weight)

    def _delete(self, i: int, j: int) -> None:
        start, length = int(self._start[i]), int(self._len[i])
        hit = start + int(np.flatnonzero(self._nbr[start : start + length] == j)[0])
        last = start + length - 1
        if not float(self._wt[hit]).is_integer():
            self._nonintegral -= 1
        self._nbr[hit] = self._nbr[last]
        self._wt[hit] = self._wt[last]
        self._len[i] = length - 1
        self._live -= 1

    def _repack_if_sparse(self) -> None:
        if self._dead > self._live:
            self.load(self.graph)

    # -- reads -----------------------------------------------------------

    @property
    def bidirectional(self) -> bool:
        """Whether :meth:`distance` runs the bidirectional search.

        Only where every sum that search forms is an exact integer: the
        rows are undirected, no entry has a weight that is not an
        integer, and ``2 n max_weight`` is below ``2**53`` (a meeting
        adds two tentative distances, each at most ``n max_weight``).
        The bound is strict so that the rounded product decides it
        soundly; ``n`` counts retired indices and the maximum is kept
        over every weight written since the last rebuild, so both only
        err towards the one-sided search, which is exact for any
        weights.
        """
        return (
            not self._directed
            and not self._nonintegral
            and 2 * self._n * self._max_weight < 2.0**53
        )

    def distance(self, u: Vertex, v: Vertex) -> float:
        """``d(u, v)`` in the spanner; ``inf`` when unreachable."""
        search = self._search
        if search is None:
            search = self._search = PointSearch(
                self._start, self._len, self._nbr, self._wt,
                self._dist_f, self._stamp_f, self._dist_b, self._stamp_b,
            )
        self._gen += 1
        return search(
            self._index[u], self._index[v], self._gen, self.bidirectional
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
