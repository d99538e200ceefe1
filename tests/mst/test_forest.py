"""Whole-array rooted-forest primitives against brute force."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mst.forest import acyclic_roots, path_max_edge, root_forest


@st.composite
def forests_with_queries(draw):
    """``(n, edges, rank, pairs)``: a random forest on ``n`` vertices.

    Vertex ``i >= 1`` of a hidden order either starts a new tree or
    hangs below an earlier vertex, so isolated vertices, one-vertex
    trees and the empty forest all occur.  A random relabelling, edge
    order and orientation hide that order from :func:`root_forest`.
    """
    n = draw(st.integers(1, 14))
    perm = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        p = draw(st.one_of(st.none(), st.integers(0, i - 1)))
        if p is not None:
            a, b = perm[i], perm[p]
            edges.append((a, b) if draw(st.booleans()) else (b, a))
    edges = draw(st.permutations(edges))
    rank = draw(st.permutations(range(len(edges))))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=24))
    return n, edges, rank, pairs


def _arrays(edges):
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    return a, b


class TestPathMaxEdge:
    @settings(max_examples=150, deadline=None)
    @given(forests_with_queries())
    @example((1, [], [], [(0, 0)]))  # no edges; a self-loop's query
    def test_matches_brute_force(self, case):
        n, edges, rank, pairs = case
        parent, parent_edge, depth, _ = root_forest(n, *_arrays(edges))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i, (a, b) in enumerate(edges):
            g.add_edge(a, b, i=i)
        same = [(x, y) for x, y in pairs if nx.has_path(g, x, y)]
        got = path_max_edge(parent, parent_edge, depth,
                            np.array(rank, dtype=np.int64),
                            np.array([x for x, _ in same], dtype=np.int64),
                            np.array([y for _, y in same], dtype=np.int64))
        for (x, y), top in zip(same, got.tolist()):
            path = nx.shortest_path(g, x, y)
            ids = [g.edges[p, q]["i"] for p, q in zip(path, path[1:])]
            assert top == (max(ids, key=rank.__getitem__) if ids else -1)
        for x, y in pairs:
            if not nx.has_path(g, x, y):
                with pytest.raises(ValueError, match="different trees"):
                    path_max_edge(parent, parent_edge, depth,
                                  np.array(rank, dtype=np.int64),
                                  np.array([x]), np.array([y]))

    @settings(max_examples=100, deadline=None)
    @given(forests_with_queries())
    def test_root_forest_is_a_rooting(self, case):
        n, edges, _, _ = case
        a, b = _arrays(edges)
        parent, parent_edge, depth, labels = root_forest(n, a, b)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        for tree in nx.connected_components(g):
            root = min(tree)
            assert {int(labels[v]) for v in tree} == {root}
            assert parent[root] == root and parent_edge[root] == -1
            for v in tree - {root}:
                e = parent_edge[v]
                assert {int(a[e]), int(b[e])} == {v, int(parent[v])}
                assert depth[v] == depth[parent[v]] + 1
        assert sorted(parent_edge[parent_edge >= 0].tolist()) == list(
            range(len(edges)))
        np.testing.assert_array_equal(acyclic_roots(parent), labels)


class TestRootForest:
    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 0)],  # triangle
        [(0, 1), (0, 1)],  # one edge id given twice
        [(1, 0), (0, 1)],  # ... in either orientation
        [(2, 2)],  # self-loop
    ])
    def test_cycle_raises(self, edges):
        with pytest.raises(ValueError, match="cycle"):
            root_forest(4, *_arrays(edges))

    def test_empty_forest(self):
        parent, parent_edge, depth, labels = root_forest(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert parent.tolist() == labels.tolist() == [0, 1, 2]
        assert parent_edge.tolist() == [-1, -1, -1]
        assert depth.tolist() == [0, 0, 0]

    def test_no_vertices(self):
        empty = np.empty(0, dtype=np.int64)
        assert all(x.size == 0 for x in root_forest(0, empty, empty))


class TestAcyclicRoots:
    def test_resolves_chains(self):
        parent = np.array([0, 0, 1, 2, 4], dtype=np.int64)
        assert acyclic_roots(parent).tolist() == [0, 0, 0, 0, 4]

    @pytest.mark.parametrize("parent", [[1, 0], [1, 2, 0], [0, 2, 3, 1]])
    def test_cycles_return_none(self, parent):
        assert acyclic_roots(np.array(parent, dtype=np.int64)) is None
