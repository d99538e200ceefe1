"""Graph preprocessing pipeline for AMST.

Mirrors the paper's Section VI-A-2 preprocessing: degree-based reordering
(so the HDV cache threshold covers the hot vertices) followed by per-vertex
edge sorting by weight (SEW, Section IV-B-3).  The reorder strategy yields
only its permutation; the run graph is then built from the input graph
in one sort that relabels and orders the half-edges together
(:meth:`~repro.graph.csr.CSRGraph.sort_edges` with ``perm``), so no
relabelled intermediate graph is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph
from .reorder import ReorderResult, dbg_permutation, degree_permutation

__all__ = ["PreprocessResult", "preprocess"]


@dataclass(frozen=True)
class PreprocessResult:
    """Output of :func:`preprocess`.

    Attributes
    ----------
    graph:
        The graph AMST actually runs on (reordered, edge-sorted).
    reorder:
        The :class:`ReorderResult` (maps ids back to the input space);
        its ``graph`` is :attr:`graph`, so a result holds one graph.
    reorder_seconds:
        Wall time of the reorder strategy's permutation alone.
    sort_seconds:
        Wall time of the one sort that relabels the vertices and orders
        each vertex's half-edges, building :attr:`graph`.  Table II times
        the paper's two steps (relabel, then edge sort) itself, outside
        this function (:func:`repro.bench.figures.table2_preprocessing`).
    """

    graph: CSRGraph
    reorder: ReorderResult
    reorder_seconds: float
    sort_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.reorder_seconds + self.sort_seconds


#: reorder strategy name -> its permutation (``perm[old_id] == new_id``)
_STRATEGIES = {
    "dbg": dbg_permutation,
    "sort": degree_permutation,
    "identity": lambda graph: np.arange(graph.num_vertices, dtype=np.int64),
}


def preprocess(
    graph: CSRGraph,
    *,
    reorder: str = "sort",
    sort_edges_by_weight: bool = True,
) -> PreprocessResult:
    """Run the AMST preprocessing phase.

    Parameters
    ----------
    reorder:
        ``"sort"`` (descending degree, the paper's DBG description),
        ``"dbg"`` (grouped DBG) or ``"identity"``.
    sort_edges_by_weight:
        Apply SEW.  Disabled for the pre-SEW ablation points of Fig 13.
    """
    if reorder not in _STRATEGIES:
        raise ValueError(
            f"unknown reorder strategy {reorder!r}; "
            f"expected one of {sorted(_STRATEGIES)}"
        )
    t0 = time.perf_counter()
    perm = _STRATEGIES[reorder](graph)
    t1 = time.perf_counter()
    g = graph.sort_edges(by_weight=sort_edges_by_weight, perm=perm)
    t2 = time.perf_counter()
    return PreprocessResult(
        graph=g,
        reorder=ReorderResult.of(g, perm),
        reorder_seconds=t1 - t0,
        sort_seconds=t2 - t1,
    )


def is_weight_sorted(graph: CSRGraph) -> bool:
    """Check the SEW invariant: each vertex's half-edges ascend by
    ``(weight, eid)``, the order ``sort_edges(by_weight=True)`` leaves
    (NaN weights last, as ``np.lexsort`` puts them)."""
    w, eid = graph.weight, graph.eid
    if w.size < 2:
        return True
    a, b = w[:-1], w[1:]
    a_nan, b_nan = np.isnan(a), np.isnan(b)
    tie = (a == b) | (a_nan & b_nan)
    rising = np.ones(w.size, dtype=bool)
    rising[1:] = (a < b) | (b_nan & ~a_nan) | (tie & (eid[:-1] <= eid[1:]))
    # Positions where a new vertex's segment starts may break the run.
    starts = graph.indptr[1:-1]
    rising[starts[starts < w.size]] = True
    return bool(rising.all())
