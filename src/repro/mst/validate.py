"""Validation of minimum spanning forests.

Checks three things independently of how a forest was produced:

1. *Forest shape*: the selected edges are acyclic and their count equals
   ``n - num_components``.
2. *Spanning*: every connected component of the input graph is covered by
   exactly one tree.
3. *Minimality*: total weight equals Kruskal's (always) and the edge set
   equals Kruskal's when weights are unique.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .forest import root_forest
from .kruskal import kruskal
from .result import MSTResult

__all__ = ["is_spanning_forest", "root_spanning_forest", "validate_mst",
           "forest_weight"]


def forest_weight(graph: CSRGraph, edge_ids: np.ndarray) -> float:
    """Total weight of a set of undirected edge ids."""
    _, _, w = graph.edge_endpoints()
    return float(w[np.asarray(edge_ids, dtype=np.int64)].sum())


def root_spanning_forest(graph: CSRGraph, edge_ids: np.ndarray):
    """:func:`~repro.mst.forest.root_forest` of ``edge_ids``, or ``None``
    unless they form a spanning forest of ``graph``."""
    u, v, _ = graph.edge_endpoints()
    eids = np.asarray(edge_ids, dtype=np.int64)
    if eids.size and (eids.min() < 0 or eids.max() >= graph.num_edges):
        return None
    try:
        rooted = root_forest(graph.num_vertices, u[eids], v[eids])
    except ValueError:
        return None  # cycle
    # Spanning: no graph edge joins two trees.
    return rooted if np.array_equal(rooted[3][u], rooted[3][v]) else None


def is_spanning_forest(graph: CSRGraph, edge_ids: np.ndarray) -> bool:
    """True iff ``edge_ids`` forms a spanning forest of ``graph``."""
    return root_spanning_forest(graph, edge_ids) is not None


def validate_mst(
    graph: CSRGraph, result: MSTResult, *, reference: MSTResult | None = None
) -> None:
    """Raise ``AssertionError`` with a precise message on any violation."""
    if reference is None:
        reference = kruskal(graph)
    if not is_spanning_forest(graph, result.edge_ids):
        raise AssertionError("result is not a spanning forest")
    expected_edges = graph.num_vertices - reference.num_components
    if result.num_edges != expected_edges:
        raise AssertionError(
            f"forest has {result.num_edges} edges, expected {expected_edges}"
        )
    if result.num_components != reference.num_components:
        raise AssertionError(
            f"forest has {result.num_components} components, expected "
            f"{reference.num_components}"
        )
    recomputed = forest_weight(graph, result.edge_ids)
    if not np.isclose(recomputed, result.total_weight, rtol=1e-9):
        raise AssertionError(
            f"claimed weight {result.total_weight} != recomputed {recomputed}"
        )
    if not np.isclose(result.total_weight, reference.total_weight, rtol=1e-9):
        raise AssertionError(
            f"forest weight {result.total_weight} is not minimal "
            f"(Kruskal: {reference.total_weight})"
        )
