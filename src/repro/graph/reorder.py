"""Vertex reordering for the high-degree-vertex cache.

Section IV-A: AMST relies on degree-based grouping (DBG, Faldu et al.) to
assign small vertex ids to high-degree vertices, so a cache that holds the
first ``Vt`` vertices captures the hot working set.  Two strategies are
provided:

* :func:`sort_by_degree` — the strict variant the paper describes
  ("sorts and assigns new indices to the vertices in descending order of
  in-degree"), i.e. a full descending-degree sort.
* :func:`dbg` — the original grouped DBG: vertices are binned into
  power-of-two degree classes; classes are emitted hottest-first but the
  *relative order inside a class is preserved*, retaining spatial locality
  of the original ordering.

Both return a permutation ``perm`` with ``perm[old_id] == new_id`` plus the
relabelled graph, and both are stable and deterministic.
:func:`degree_permutation` and :func:`dbg_permutation` compute the
permutation alone; :func:`~repro.graph.preprocess.preprocess` takes it
from them and builds the run graph in one sort
(:meth:`~repro.graph.csr.CSRGraph.sort_edges` with ``perm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph, stable_argsort

__all__ = [
    "ReorderResult",
    "sort_by_degree",
    "dbg",
    "identity_order",
    "degree_permutation",
    "dbg_permutation",
]


@dataclass(frozen=True)
class ReorderResult:
    """A relabelled graph together with the permutation that produced it.

    Attributes
    ----------
    graph:
        The relabelled graph (new vertex ids).  Inside a
        :class:`~repro.graph.preprocess.PreprocessResult` it is the
        edge-sorted graph the run uses.
    perm:
        ``perm[old_id] == new_id``.
    inverse:
        ``inverse[new_id] == old_id``; handy for reporting MST edges in
        the original id space.
    """

    graph: CSRGraph
    perm: np.ndarray
    inverse: np.ndarray

    @classmethod
    def of(cls, graph: CSRGraph, perm: np.ndarray) -> "ReorderResult":
        """``perm`` and its inverse, with ``graph`` already relabelled."""
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size, dtype=np.int64)
        return cls(graph, perm, inverse)

    def to_original(self, new_ids: np.ndarray) -> np.ndarray:
        """Map new vertex ids back to original ids."""
        return self.inverse[np.asarray(new_ids, dtype=np.int64)]


def identity_order(graph: CSRGraph) -> ReorderResult:
    """No-op reordering (baseline for ablations)."""
    return ReorderResult.of(
        graph, np.arange(graph.num_vertices, dtype=np.int64))


def degree_permutation(graph: CSRGraph) -> np.ndarray:
    """The permutation of :func:`sort_by_degree`, without the relabel."""
    deg = graph.degrees()
    # argsort ascending on -degree, stable so equal-degree vertices keep
    # their original relative order.
    order = stable_argsort(-deg)
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[order] = np.arange(graph.num_vertices, dtype=np.int64)
    return perm


def sort_by_degree(graph: CSRGraph) -> ReorderResult:
    """Full descending-degree relabelling (paper's description of DBG)."""
    perm = degree_permutation(graph)
    return ReorderResult.of(graph.permute(perm), perm)


def dbg_permutation(graph: CSRGraph, num_groups: int = 8) -> np.ndarray:
    """The permutation of :func:`dbg`, without the relabel."""
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    deg = graph.degrees().astype(np.float64)
    n = graph.num_vertices
    avg = max(deg.mean(), 1.0) if n else 1.0
    # group 0 = hottest. ratio r = deg/avg; vertices with r >= 2**(g-1)
    # belong to group (num_groups-1-g)... simpler: compute bin index by
    # log2(deg/avg) clipped to [0, num_groups-1], hottest = highest bin.
    with np.errstate(divide="ignore"):
        level = np.floor(np.log2(np.maximum(deg, 1e-12) / avg)).astype(np.int64)
    level = np.clip(level + 1, 0, num_groups - 1)  # <avg -> 0, hottest high
    hotness = (num_groups - 1) - level  # 0 = hottest bin for the sort below
    order = stable_argsort(hotness)
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return perm


def dbg(graph: CSRGraph, num_groups: int = 8) -> ReorderResult:
    """Degree-based grouping with ``num_groups`` power-of-two degree bins.

    Vertices with degree in ``[avg * 2**(k), avg * 2**(k+1))`` share a bin;
    bins are emitted from hottest to coldest while preserving intra-bin
    order.  Vertices at or below the average degree land in the coldest
    bin unsorted, which is what keeps DBG's reordering cost low (Table II).
    """
    perm = dbg_permutation(graph, num_groups)
    return ReorderResult.of(graph.permute(perm), perm)
