"""Constructing :class:`~repro.graph.csr.CSRGraph` instances.

Builders accept undirected edge lists (each edge listed once, in either
orientation), clean them (self loops dropped, parallel edges reduced to the
lightest), mirror them into half-edges and pack the CSR arrays.  Everything
is vectorized; no Python-level loop touches an edge.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, stable_argsort

__all__ = [
    "from_edges",
    "from_arrays",
    "from_networkx",
    "to_networkx",
    "random_weights",
]


def random_weights(
    num_edges: int,
    rng: np.random.Generator | int | None = None,
    *,
    low: float = 1.0,
    high: float = float(2**32),
    unique: bool = False,
) -> np.ndarray:
    """Random edge weights as in the paper's setup (4-byte random values).

    With ``unique=True`` the weights are a random permutation of distinct
    values, which makes the MST unique — convenient for cross-algorithm
    equality tests.
    """
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if unique:
        w = np.arange(1, num_edges + 1, dtype=np.float64)
        rng.shuffle(w)
        return w
    return rng.uniform(low, high, size=num_edges)


def from_edges(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray | None = None,
    *,
    rng: np.random.Generator | int | None = None,
    dedup: bool = True,
) -> CSRGraph:
    """Build an undirected CSR graph from an edge list.

    Parameters
    ----------
    num_vertices:
        Vertex count ``n``; ids must lie in ``[0, n)``.
    u, v:
        Endpoint arrays, one entry per undirected edge.
    w:
        Optional weights; random 4-byte-style weights are drawn when
        omitted (seeded by ``rng``).
    dedup:
        Drop self loops and collapse parallel edges keeping the lightest,
        mirroring the canonical simple-graph datasets of Table I.
    """
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")
    if u.size and (
        min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= num_vertices
    ):
        raise ValueError("edge endpoint out of range")
    if w is None:
        w = random_weights(u.size, rng)
    else:
        w = np.asarray(w, dtype=np.float64).ravel()
        if w.shape != u.shape:
            raise ValueError("w must have the same length as u/v")

    if dedup and u.size:
        keep = u != v
        u, v, w = u[keep], v[keep], w[keep]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        # Collapse parallel edges: group by (lo, hi), keep min weight.
        order = np.lexsort((w, hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        u, v, w = lo[first], hi[first], w[first]

    return from_arrays(num_vertices, u, v, w)


def from_arrays(
    num_vertices: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> CSRGraph:
    """Pack a *clean* undirected edge list (no loops/duplicates) into CSR."""
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    m = u.size
    eid = np.arange(m, dtype=np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    ww = np.concatenate([w, w])
    ee = np.concatenate([eid, eid])
    order = stable_argsort(src)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return CSRGraph(indptr, dst[order], ww[order], ee[order])


def from_networkx(graph, weight_attr: str = "weight") -> CSRGraph:
    """Convert an undirected networkx graph (nodes relabelled 0..n-1)."""
    import networkx as nx

    if graph.is_directed():
        raise ValueError("AMST operates on undirected graphs")
    mapping = {node: i for i, node in enumerate(graph.nodes())}
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    w = np.empty(m, dtype=np.float64)
    for k, (a, b, data) in enumerate(graph.edges(data=True)):
        u[k] = mapping[a]
        v[k] = mapping[b]
        w[k] = float(data.get(weight_attr, 1.0))
    del nx
    return from_edges(n, u, v, w)


def to_networkx(csr: CSRGraph):
    """Convert back to a networkx graph (for validation in tests)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(csr.num_vertices))
    u, v, w = csr.edge_endpoints()
    g.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return g
