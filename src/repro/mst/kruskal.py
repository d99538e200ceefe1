"""Kruskal's algorithm — the repo's ground truth.

Sorting is vectorized; the union loop (the ``kruskal_union`` kernel) is
scalar but touches each edge at most once, so it stays fast enough to
validate every simulator run.  Ties are broken by undirected edge id,
matching the tie-break used by the Borůvka implementations, so on
duplicate weights all algorithms agree on total weight (and on the
exact edge set when weights are unique).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels import numpy_impl
from .result import MSTResult

__all__ = ["kruskal"]


def kruskal(graph: CSRGraph) -> MSTResult:
    """Minimum spanning forest via Kruskal (the repo ground truth).

    The total weight is accumulated in acceptance order.
    """
    u, v, w = graph.edge_endpoints()
    order = np.lexsort((np.arange(u.size), w))
    chosen, comps, total = numpy_impl.kruskal_union(
        graph.num_vertices, u[order], v[order], w[order])
    return MSTResult(
        edge_ids=order[chosen],
        total_weight=float(total),
        num_components=int(comps),
    )
