"""Full minimality certification of a spanning forest.

`validate_mst` proves a forest's weight equals Kruskal's — convincing, but
circular if Kruskal itself were wrong.  This module certifies minimality
from first principles via the strict **cycle property** under the
repo-wide ``(weight, eid)`` order: a spanning forest F of G is *the*
canonical minimum spanning forest iff every non-forest edge outranks
every edge on F's path between its endpoints.  One rooting and one
lockstep climb (:mod:`repro.mst.forest`) check all non-forest edges at
once, and no MST algorithm is called.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .forest import path_max_edge
from .validate import root_spanning_forest

__all__ = ["certify_minimum_forest"]


def certify_minimum_forest(
    graph: CSRGraph, edge_ids: np.ndarray
) -> None:
    """Raise AssertionError unless ``edge_ids`` is the canonical
    ``(weight, eid)`` minimum spanning forest of ``graph``
    (independent first-principles proof)."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    rooted = root_spanning_forest(graph, edge_ids)
    if rooted is None:
        raise AssertionError("not a spanning forest")
    parent, parent_edge, depth, _ = rooted
    m = graph.num_edges
    u, v, w = graph.edge_endpoints()
    rank = np.empty(m, dtype=np.int64)
    rank[np.lexsort((np.arange(m), w))] = np.arange(m)
    in_forest = np.zeros(m, dtype=bool)
    in_forest[edge_ids] = True
    # a self-loop closes an empty path: no forest edge to outrank
    others = np.flatnonzero(~in_forest & (u != v))
    top = edge_ids[path_max_edge(parent, parent_edge, depth,
                                 rank[edge_ids], u[others], v[others])]
    beaten = np.flatnonzero(rank[others] < rank[top])
    if beaten.size:
        e, f = int(others[beaten[0]]), int(top[beaten[0]])
        raise AssertionError(
            f"cycle property violated: non-tree edge {e} ({u[e]}-{v[e]}, "
            f"w={w[e]}) precedes its path maximum {f} (w={w[f]}) in "
            "(weight, eid) order")
