"""Graph preprocessing pipeline for AMST.

Mirrors the paper's Section VI-A-2 preprocessing: degree-based reordering
(so the HDV cache threshold covers the hot vertices) followed by per-vertex
edge sorting by weight (SEW, Section IV-B-3).  Timing of each step feeds
Table II.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .csr import CSRGraph
from .reorder import ReorderResult, dbg, identity_order, sort_by_degree

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
    reorder_seconds / sort_seconds:
        Wall time of each preprocessing step (Table II "Reorder").
    """

    graph: CSRGraph
    reorder: ReorderResult
    reorder_seconds: float
    sort_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.reorder_seconds + self.sort_seconds


_STRATEGIES = {
    "dbg": dbg,
    "sort": sort_by_degree,
    "identity": identity_order,
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
    rr = _STRATEGIES[reorder](graph)
    t1 = time.perf_counter()
    g = rr.graph.sort_edges(by_weight=sort_edges_by_weight)
    t2 = time.perf_counter()
    return PreprocessResult(
        graph=g,
        reorder=replace(rr, graph=g),
        reorder_seconds=t1 - t0,
        sort_seconds=t2 - t1,
    )


def is_weight_sorted(graph: CSRGraph) -> bool:
    """Check the SEW invariant: each vertex's edges ascend by weight."""
    w = graph.weight
    if w.size < 2:
        return True
    rising = np.ones(w.size, dtype=bool)
    rising[1:] = w[1:] >= w[:-1]
    # Positions where a new vertex's segment starts may break the run.
    starts = graph.indptr[1:-1]
    rising[starts[starts < w.size]] = True
    return bool(rising.all())
