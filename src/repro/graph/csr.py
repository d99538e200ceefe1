"""Compressed-sparse-row graph container.

The paper (Section II-A) represents graphs in standard CSR with an edge
array of ``(dest, weight)`` entries and an offset array indexed by source
vertex.  We mirror that layout exactly: an undirected graph with ``m``
edges is stored as ``2m`` directed half-edges, and every half-edge carries
the *undirected* edge id of its mate (``eid``) so MST output can be
reported as a canonical set of undirected edges.

All arrays are immutable (``writeable=False``); transformations return new
graphs.  Index arrays are ``int64`` and weights ``float64`` throughout,
matching the repo-wide dtype policy.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["CSRGraph", "stable_argsort", "weight_eid_order"]

#: the arrays a graph is made of, in constructor order
_ARRAYS = ("indptr", "dst", "weight", "eid")

#: stable_argsort packs the index this many at a time, so it needs no
#: second n-sized array (a daemon's peak RSS follows such temporaries)
_INDEX_CHUNK = 1 << 16


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Indices that sort integer ``keys`` ascending, equal keys in input
    order: exactly ``np.argsort(keys, kind="stable")``.

    NumPy's stable sort of 32- and 64-bit integers is a timsort, several
    times slower than its plain sort on unsorted keys.  Keys already in
    order return at once.  Otherwise, when ``(key - min) << bits(n)``
    fits in ``int64``, each key is packed with its index in those low
    bits; the packed values are unique, so one plain in-place sort puts
    them in the stable order and the low bits are the answer.  Beside
    one boolean pass, the only array of size ``n`` this allocates is the
    result.  Wider keys (and any other array) take NumPy's stable sort.
    """
    keys = np.asarray(keys)
    if keys.size < 2 or keys.ndim != 1 or keys.dtype.kind not in "iu":
        return np.argsort(keys, kind="stable")
    order = _packed_argsort(keys)
    return np.argsort(keys, kind="stable") if order is None else order


def _packed_argsort(keys: np.ndarray) -> np.ndarray | None:
    """:func:`stable_argsort` of 1-D integer ``keys`` by one plain sort of
    the index-packed keys, or None when they would pass ``int64``."""
    n = keys.size
    if (keys[1:] >= keys[:-1]).all():
        return np.arange(n)
    lo = keys.min()
    bits = (n - 1).bit_length()
    if (int(keys.max()) - int(lo)) >> (63 - bits):  # would pass 2**63 - 1
        return None
    packed = np.subtract(keys, lo, dtype=np.int64)
    packed <<= bits
    for start in range(0, n, _INDEX_CHUNK):
        stop = min(n, start + _INDEX_CHUNK)
        packed[start:stop] |= np.arange(start, stop)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def weight_eid_order(weight: np.ndarray, eid: np.ndarray) -> np.ndarray:
    """Indices that sort ``(weight, eid)`` pairs ascending, equal pairs in
    input order: exactly ``np.lexsort((eid, weight))``.

    This is the canonical MST order (DESIGN.md, "Canonical MST
    tie-break"); SEW preprocessing and the MinEdge commit both take it
    from here.  One ``argsort`` of the weights decides it when they are
    distinct.  A tie of two (the usual one: both endpoints of an edge
    offering it as their candidate) is put in ``(eid, index)`` order by
    a swap; a NaN or a run of three or more equal weights takes the
    exact lexsort.
    """
    order = np.argsort(weight)
    w = weight[order]
    if w.size < 2:
        return order
    tie = w[1:] == w[:-1]
    if np.isnan(w[-1]) or (tie[1:] & tie[:-1]).any():
        return np.lexsort((eid, weight))
    t = np.flatnonzero(tie)
    a, b = order[t], order[t + 1]
    swap = (eid[b] < eid[a]) | ((eid[b] == eid[a]) & (b < a))
    order[t[swap]], order[t[swap] + 1] = b[swap], a[swap]
    return order


class CSRGraph:
    """An immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[n + 1]`` offsets into the half-edge arrays; vertex ``v``
        owns half-edges ``indptr[v]:indptr[v + 1]``.
    dst:
        ``int64[2m]`` destination vertex of each half-edge.
    weight:
        ``float64[2m]`` weight of each half-edge (both mates carry the
        same weight).
    eid:
        ``int64[2m]`` undirected edge id in ``[0, m)``; the two mates of an
        undirected edge share one id.
    """

    __slots__ = ("indptr", "dst", "weight", "eid", "_src_cache")

    def __init__(
        self,
        indptr: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        eid: np.ndarray,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        eid = np.asarray(eid, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        if indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != dst.size:
            raise ValueError(
                f"indptr[-1] ({int(indptr[-1])}) must equal the number of "
                f"half-edges ({dst.size})"
            )
        if not (dst.size == weight.size == eid.size):
            raise ValueError("dst, weight and eid must have equal length")
        n = indptr.size - 1
        if dst.size and (dst.min() < 0 or dst.max() >= n):
            raise ValueError("dst contains out-of-range vertex ids")
        self.indptr = _freeze(indptr)
        self.dst = _freeze(dst)
        self.weight = _freeze(weight)
        self.eid = _freeze(eid)
        self._src_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_half_edges(self) -> int:
        return self.dst.size

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges."""
        return 0 if self.eid.size == 0 else int(self.eid.max()) + 1

    def degrees(self) -> np.ndarray:
        """``int64[n]`` out-degree (== undirected degree) per vertex."""
        return np.diff(self.indptr)

    def src_expanded(self) -> np.ndarray:
        """``int64[2m]`` source vertex of each half-edge (cached)."""
        if self._src_cache is None:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees()
            )
            self._src_cache = _freeze(src)
        return self._src_cache

    # ------------------------------------------------------------------
    # per-vertex access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.dst[s:e]

    def edges_of(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dst, weight, eid)`` slices for vertex ``v``."""
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.dst[s:e], self.weight[s:e], self.eid[s:e]

    def iter_edges(self) -> Iterator[tuple[int, int, float, int]]:
        """Yield each undirected edge once as ``(u, v, w, eid)`` with u <= v."""
        seen = np.zeros(self.num_edges, dtype=bool)
        src = self.src_expanded()
        for k in range(self.num_half_edges):
            e = int(self.eid[k])
            if not seen[e]:
                seen[e] = True
                u, v = int(src[k]), int(self.dst[k])
                if u > v:
                    u, v = v, u
                yield u, v, float(self.weight[k]), e

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edge list ``(u, v, w)`` indexed by eid.

        ``u[i] <= v[i]`` for every undirected edge id ``i``.
        """
        m = self.num_edges
        u = np.zeros(m, dtype=np.int64)
        v = np.zeros(m, dtype=np.int64)
        w = np.zeros(m, dtype=np.float64)
        src = self.src_expanded()
        lo = np.minimum(src, self.dst)
        hi = np.maximum(src, self.dst)
        u[self.eid] = lo
        v[self.eid] = hi
        w[self.eid] = self.weight
        return u, v, w

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``v`` is ``perm[v]``.

        Used by degree-based grouping (Section IV-A).  Half-edges of the
        relabelled graph are regrouped by new source id; the relative order
        of a vertex's own edges is preserved.
        """
        perm = self._check_perm(perm)
        n = self.num_vertices
        new_src = perm[self.src_expanded()]
        new_dst = perm[self.dst]
        order = stable_argsort(new_src)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_src, minlength=n), out=indptr[1:])
        return CSRGraph(
            indptr, new_dst[order], self.weight[order], self.eid[order]
        )

    def sort_edges(
        self, by_weight: bool, *, perm: np.ndarray | None = None
    ) -> "CSRGraph":
        """Return a copy with each vertex's half-edges sorted.

        ``by_weight=True`` implements the SEW preprocessing (Section
        IV-B-3): within each vertex, edges ordered by ascending
        ``(weight, eid)`` — the eid tie-break matches the global minimum-
        edge order used by every MST implementation in this repo, which
        is what makes mirror detection by eid equality sound.  The ``m``
        undirected edges are ranked once by :func:`weight_eid_order`
        (mates share a weight) and the half-edges sorted by the single
        key ``src * m + rank``, packed with its index into one plain
        sort as :func:`stable_argsort` does (``np.argsort`` when the
        packed key would pass ``int64``); only the two half-edges of a
        self-loop share a key, and they are identical.
        ``by_weight=False`` sorts by destination id, the canonical
        adjacency order.

        ``perm`` relabels the vertices in the same sort (new id of old
        vertex ``v`` is ``perm[v]``): the result equals
        ``self.permute(perm).sort_edges(by_weight)`` without building
        the relabelled graph.
        """
        src = self.src_expanded()
        dst = self.dst
        indptr = self.indptr
        if perm is not None:
            perm = self._check_perm(perm)
            src, dst = perm[src], perm[dst]
            deg = np.empty(self.num_vertices, dtype=np.int64)
            deg[perm] = self.degrees()
            indptr = np.zeros_like(self.indptr)
            np.cumsum(deg, out=indptr[1:])
        if by_weight:
            m = self.num_edges
            w = np.zeros(m)
            w[self.eid] = self.weight
            rank = np.empty(m, dtype=np.int64)
            rank[weight_eid_order(w, np.arange(m))] = np.arange(m)
            key = src * m + rank[self.eid]
            order = _packed_argsort(key)
            if order is None:
                order = np.argsort(key)
        else:
            order = np.lexsort((self.weight, dst, src))
        return CSRGraph(
            indptr, dst[order], self.weight[order], self.eid[order]
        )

    def _check_perm(self, perm: np.ndarray) -> np.ndarray:
        perm = np.asarray(perm, dtype=np.int64)
        n = self.num_vertices
        if perm.shape != (n,):
            raise ValueError("perm must have one entry per vertex")
        check = np.zeros(n, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ValueError("perm is not a permutation")
        return perm

    def reweight(self, weight: np.ndarray) -> "CSRGraph":
        """Return a copy with new per-undirected-edge weights.

        ``weight`` is indexed by undirected edge id (length ``num_edges``).
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (self.num_edges,):
            raise ValueError("weight must have one entry per undirected edge")
        return CSRGraph(self.indptr, self.dst, weight[self.eid], self.eid)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, np.ndarray]:
        # the four arrays only: the src cache is derived data
        return {name: getattr(self, name) for name in _ARRAYS}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # (None, slots) of older pickles
            state = state[1]
        for name in _ARRAYS:
            setattr(self, name, _freeze(state[name]))
        self._src_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"half_edges={self.num_half_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
            and np.array_equal(self.eid, other.eid)
        )

    def __hash__(self) -> int:
        return hash(
            (self.num_vertices, self.num_half_edges, self.weight.sum())
        )
