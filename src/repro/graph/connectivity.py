"""Connected-component utilities.

Used by the examples (backbone statistics) and the validators, and as an
independent cross-check of every MST implementation's component count.
The label-propagation kernel is the same pointer-jumping primitive the
Compressing Module uses, so it doubles as a reference for its tests.
"""

from __future__ import annotations

import numpy as np

from ..mst.union_find import hook_labels
from .csr import CSRGraph

__all__ = ["connected_components", "component_sizes", "is_connected"]


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex (the minimum vertex id in the component).

    Whole-array hook-and-jump (:func:`~repro.mst.union_find.hook_labels`),
    converging in O(log n) rounds.
    """
    u, v, _ = graph.edge_endpoints()
    return hook_labels(graph.num_vertices, u, v)


def component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of all connected components, descending."""
    labels = connected_components(graph)
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def is_connected(graph: CSRGraph) -> bool:
    """True iff the graph has a single connected component."""
    if graph.num_vertices <= 1:
        return True
    return bool(np.unique(connected_components(graph)).size == 1)
