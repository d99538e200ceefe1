"""Rooted spanning forests as whole arrays.

The one rooting (:func:`root_forest`), tree-path maximum
(:func:`path_max_edge`) and acyclicity proof (:func:`acyclic_roots`)
behind every forest checker: the certificate, the spanning-forest
validator, minimax queries, the incremental engine's rebuild and audit,
and the simulator self-check.  Each is a few whole-array passes, after
the hooking and shortcutting kernels of Baer et al. (sparse-matrix
minimum spanning forests), not a per-vertex loop.  Nothing here calls an
MST algorithm, so the checkers stay independent of what they check.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import stable_argsort
from .union_find import hook_labels

__all__ = ["root_forest", "path_max_edge", "acyclic_roots"]


def root_forest(n: int, a: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Root each tree of the forest whose edge ``i`` joins ``a[i]``–``b[i]``.

    Returns ``(parent, parent_edge, depth, labels)`` over the ``n``
    vertices: ``parent[v]`` is v's parent (v itself for a root),
    ``parent_edge[v]`` the position ``i`` of the edge to it (``-1`` for
    a root), ``depth[v]`` its distance from the root, and ``labels[v]``
    the root, which is the tree's smallest vertex.  Raises
    ``ValueError`` if the edges close a cycle, a self-loop or a
    repeated edge included.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    vertex = np.arange(n, dtype=np.int64)
    labels = hook_labels(n, a, b)
    roots = np.flatnonzero(labels == vertex)
    if roots.size != n - a.size:  # an edge inside one tree
        raise ValueError("edge set has a cycle")

    # Level-synchronous BFS from the roots over the forest's CSR.
    ends = np.concatenate([a, b])
    order = stable_argsort(ends)
    nbr = np.concatenate([b, a])[order]
    edge = np.concatenate([np.arange(a.size)] * 2)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    parent = vertex.copy()
    parent_edge = np.full(n, -1, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)  # -1: not reached yet
    depth[roots] = 0
    frontier = roots
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        owner = np.repeat(frontier, counts)
        first = np.cumsum(counts) - counts  # of each range in idx
        idx = np.arange(owner.size) + np.repeat(starts - first, counts)
        new = depth[nbr[idx]] < 0
        idx, owner = idx[new], owner[new]
        frontier = nbr[idx]
        parent[frontier] = owner
        parent_edge[frontier] = edge[idx]
        depth[frontier] = depth[owner] + 1
    return parent, parent_edge, depth, labels


def path_max_edge(parent: np.ndarray, parent_edge: np.ndarray,
                  depth: np.ndarray, rank: np.ndarray, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Highest-ranked forest edge on every ``x[k]``–``y[k]`` tree path.

    ``parent``/``parent_edge``/``depth`` come from :func:`root_forest`;
    ``rank[e]`` is a non-negative integer rank of forest edge ``e``.
    Returns the edge per pair, ``-1`` where ``x[k] == y[k]`` (an empty
    path); raises ``ValueError`` if a pair lies in two different trees.
    All pairs climb in lockstep: each pass steps the deeper endpoint of
    every unfinished pair to its parent, or both when they are level.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = np.full(x.size, -1, dtype=np.int64)
    pos = np.flatnonzero(x != y)
    xs, ys = x[pos], y[pos]
    top, top_rank = np.full((2, pos.size), -1, dtype=np.int64)
    while pos.size:
        # one depth snapshot per pass: stepping x first and re-reading
        # its depth could carry it past the meeting point
        dx, dy = depth[xs], depth[ys]
        if ((dx == 0) & (dy == 0)).any():
            raise ValueError("endpoints are in different trees")
        for ends, step in ((xs, dx >= dy), (ys, dy >= dx)):
            at = np.flatnonzero(step)
            e = parent_edge[ends[at]]
            r = rank[e]
            up = r > top_rank[at]
            top[at[up]] = e[up]
            top_rank[at[up]] = r[up]
            ends[at] = parent[ends[at]]
        met = xs == ys
        out[pos[met]] = top[met]
        pos, xs, ys, top, top_rank = (
            arr[~met] for arr in (pos, xs, ys, top, top_rank))
    return out


def acyclic_roots(parent: np.ndarray) -> np.ndarray | None:
    """Fully-resolved roots, or ``None`` if a pointer chain cycles.

    Bounded pointer doubling: every round at least halves the maximum
    chain depth, so ``ceil(log2(n)) + 2`` rounds suffice for any acyclic
    forest; failing to reach a fixed point within the bound proves a
    cycle.  Even-length cycles are invisible to squaring (a 2-cycle's
    square is two fixed points), so the converged targets must also be
    genuine fixed points of ``parent`` itself.
    """
    n = parent.size
    if n == 0:
        return parent.copy()
    cur = parent.copy()
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 2):
        nxt = cur[cur]
        if np.array_equal(nxt, cur):
            if not np.all(parent[cur] == cur):
                return None  # converged onto a cycle, not real roots
            return cur
        cur = nxt
    return None
