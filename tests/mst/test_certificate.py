"""Unit tests for the first-principles minimality certificate."""

import numpy as np
import pytest

from repro.graph import from_edges, rmat, road_lattice
from repro.mst import certify_minimum_forest, kruskal
from repro.mst.forest import path_max_edge, root_forest


class TestCertificate:
    def test_accepts_true_mst(self, zoo):
        for name, g in zoo:
            certify_minimum_forest(g, kruskal(g).edge_ids), name

    def test_rejects_non_minimal_tree(self):
        # triangle: forest {heavy, heavy} instead of {light, light}
        g = from_edges(3, np.array([0, 1, 0]), np.array([1, 2, 2]),
                       np.array([1.0, 2.0, 10.0]))
        u, v, w = g.edge_endpoints()
        heavy = np.argsort(-w)[:2]
        with pytest.raises(AssertionError, match="cycle property"):
            certify_minimum_forest(g, heavy)

    def test_rejects_non_canonical_tie_swap(self):
        # equal weights: every spanning tree is minimum, but only
        # Kruskal's (weight, eid) forest {0, 1} is the canonical one
        g = from_edges(3, np.array([0, 1, 0]), np.array([1, 2, 2]),
                       np.array([1.0, 1.0, 1.0]))
        assert kruskal(g).edge_ids.tolist() == [0, 1]
        certify_minimum_forest(g, np.array([0, 1]))
        with pytest.raises(AssertionError, match="cycle property"):
            certify_minimum_forest(g, np.array([0, 2]))

    def test_self_loop_beside_empty_forest(self):
        # n=1, m=1: the only edge is a self-loop, the forest is empty
        g = from_edges(1, np.array([0]), np.array([0]), np.array([1.0]))
        certify_minimum_forest(g, kruskal(g).edge_ids)

    def test_rejects_duplicated_edge_id(self, tiny_graph):
        with pytest.raises(AssertionError, match="not a spanning forest"):
            certify_minimum_forest(tiny_graph, np.array([0, 0]))

    def test_rejects_non_forest(self, tiny_graph):
        with pytest.raises(AssertionError, match="not a spanning forest"):
            certify_minimum_forest(tiny_graph, np.array([0, 1, 2, 3, 4]))

    def test_certifies_forest_of_components(self, forest_graph):
        certify_minimum_forest(forest_graph, kruskal(forest_graph).edge_ids)

    def test_amst_simulator_output_certified(self):
        from repro.core import Amst, AmstConfig

        g = rmat(8, 6, rng=7)
        out = Amst(AmstConfig.full(8, cache_vertices=64)).run(g)
        certify_minimum_forest(g, out.result.edge_ids)


def _rooted(g, tree):
    """``root_forest`` of ``tree`` plus weight ranks of its edges."""
    u, v, w = g.edge_endpoints()
    parent, parent_edge, depth, _ = root_forest(g.num_vertices,
                                                u[tree], v[tree])
    rank = np.argsort(np.argsort(w[tree], kind="stable"), kind="stable")
    return (parent, parent_edge, depth, rank), w[tree]


class TestPathMax:
    def test_known_path(self):
        g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                       np.array([5.0, 1.0, 3.0]))
        rooted, w = _rooted(g, kruskal(g).edge_ids)
        top = path_max_edge(*rooted, np.array([0, 1]), np.array([3, 3]))
        assert w[top].tolist() == [5.0, 3.0]

    def test_same_vertex(self):
        g = road_lattice(4, 4, drop_prob=0.0, rng=0)
        rooted, _ = _rooted(g, kruskal(g).edge_ids)
        assert path_max_edge(*rooted, np.array([5]),
                             np.array([5])).tolist() == [-1]

    def test_cross_tree_raises(self, forest_graph):
        rooted, _ = _rooted(forest_graph, kruskal(forest_graph).edge_ids)
        with pytest.raises(ValueError, match="different trees"):
            path_max_edge(*rooted, np.array([0]), np.array([4]))
