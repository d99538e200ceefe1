"""Disjoint-set union (union-find).

Used by the validators and the reference algorithms.  The scalar
interface is the textbook union-by-rank + path-halving structure; the
vectorized helpers (:meth:`UnionFind.find_many`, :func:`pointer_jump`,
:func:`hook_labels`) serve Borůvka and the forest checkers, where
per-element Python calls would dominate runtime.  They run the
``find_many`` / ``pointer_jump`` kernels of :mod:`repro.kernels.numpy_impl`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import numpy_impl

__all__ = ["UnionFind", "hook_labels", "pointer_jump"]


class UnionFind:
    """Array-based DSU over ``n`` elements."""

    __slots__ = ("parent", "rank", "_num_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)
        self._num_components = n

    def __len__(self) -> int:
        return self.parent.size

    @property
    def num_components(self) -> int:
        return self._num_components

    def find(self, x: int) -> int:
        """Root of ``x`` with path halving."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = int(p[x])
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns False if already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self._num_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized find (no compression writes; read-only batch)."""
        return numpy_impl.find_many(self.parent, np.asarray(xs, dtype=np.int64))


def pointer_jump(parent: np.ndarray) -> np.ndarray:
    """Iterated ``parent = parent[parent]`` until a fixed point.

    This is exactly Stage 4's path compression (Algorithm 1, line 23) in
    vectorized form (the ``pointer_jump`` kernel); each round halves the
    depth of every tree, so the loop runs O(log depth) times.  The input
    array is modified in place and returned.
    """
    parent = np.asarray(parent)
    if parent.dtype.kind not in "iu":
        raise TypeError("parent must be an integer array")
    return numpy_impl.pointer_jump(parent)


def hook_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component label (smallest vertex) per vertex of the graph whose
    edge ``i`` joins ``a[i]``–``b[i]``: whole-array union-find.

    Each round hooks every root onto the smallest root it shares an edge
    with, then shortcuts (:func:`pointer_jump`).  Pointers only decrease,
    so no hook closes a loop; a root merges within two rounds.
    """
    labels = np.arange(n, dtype=np.int64)
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            return labels
        la, lb = la[split], lb[split]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        pointer_jump(labels)
