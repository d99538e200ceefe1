"""Spanning-tree problem variants layered on the core solvers.

The accelerator computes *minimum* spanning forests; these adapters map
related problems onto it (or onto the reference solvers) by weight
transformation — the standard way an MST engine is deployed for maximum
spanning trees (e.g. graph sparsification, correlation clustering) and
for bottleneck queries.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .forest import path_max_edge, root_forest
from .kruskal import kruskal
from .result import MSTResult

__all__ = ["maximum_spanning_forest", "minimax_path_weight"]


def maximum_spanning_forest(
    graph: CSRGraph, solver=None
) -> MSTResult:
    """Maximum-weight spanning forest via weight negation.

    ``solver`` is any callable mapping a graph to an
    :class:`MSTResult` (defaults to Kruskal; pass
    ``lambda g: Amst().run(g).result`` to use the accelerator).
    """
    solver = solver if solver is not None else kruskal
    _, _, w = graph.edge_endpoints()
    negated = graph.reweight(-w)
    res = solver(negated)
    true_weight = float(w[res.edge_ids].sum())
    return MSTResult(
        edge_ids=res.edge_ids,
        total_weight=true_weight,
        num_components=res.num_components,
        iterations=res.iterations,
    )


def minimax_path_weight(
    graph: CSRGraph, pairs: np.ndarray, forest: MSTResult | None = None
) -> np.ndarray:
    """Bottleneck (minimax) path weight for vertex pairs.

    The minimax path between two vertices — the path minimizing the
    maximum edge weight — always runs along the minimum spanning forest,
    so each query reduces to a path-maximum on the MST.  Returns ``inf``
    for pairs in different components.  ``pairs`` is ``(k, 2)`` int;
    a vertex id outside ``[0, n)`` raises ``ValueError``.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (k, 2)")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= graph.num_vertices):
        raise ValueError(
            f"pairs must hold vertex ids in [0, {graph.num_vertices})")
    if forest is None:
        forest = kruskal(graph)
    ids = forest.edge_ids
    u, v, w = graph.edge_endpoints()
    parent, parent_edge, depth, labels = root_forest(
        graph.num_vertices, u[ids], v[ids])
    rank = np.argsort(np.argsort(w[ids], kind="stable"))
    x, y = pairs[:, 0], pairs[:, 1]
    same = labels[x] == labels[y]
    out = np.where(same, 0.0, np.inf)
    path = np.flatnonzero(same & (x != y))
    top = path_max_edge(parent, parent_edge, depth, rank, x[path], y[path])
    out[path] = w[ids[top]]
    return out
