"""Unit tests for spanning-tree variants."""

import numpy as np
import pytest

from repro.graph import from_edges, rmat, to_networkx
from repro.mst import (
    kruskal,
    maximum_spanning_forest,
    minimax_path_weight,
    prim,
)


class TestMaximumSpanningForest:
    def test_matches_networkx(self, zoo):
        import networkx as nx

        for name, g in zoo:
            expected = sum(
                d["weight"] for _, _, d in nx.maximum_spanning_edges(
                    to_networkx(g), data=True))
            got = maximum_spanning_forest(g).total_weight
            assert np.isclose(got, expected), name

    def test_weight_is_true_weight_not_negated(self, tiny_graph):
        msf = maximum_spanning_forest(tiny_graph)
        assert msf.total_weight > 0

    def test_custom_solver(self, tiny_graph):
        via_prim = maximum_spanning_forest(tiny_graph, solver=prim)
        via_kruskal = maximum_spanning_forest(tiny_graph)
        assert np.isclose(via_prim.total_weight, via_kruskal.total_weight)

    def test_with_accelerator_solver(self):
        from repro.core import Amst, AmstConfig

        g = rmat(7, 5, rng=2)
        amst = maximum_spanning_forest(
            g, solver=lambda h: Amst(
                AmstConfig.full(4, cache_vertices=32)).run(h).result)
        assert np.isclose(
            amst.total_weight, maximum_spanning_forest(g).total_weight)


class TestMinimaxPath:
    def test_known_path(self):
        # 0 -5- 1 -2- 2 and 0 -9- 2: minimax(0,2) = 5 via the tree
        g = from_edges(3, np.array([0, 1, 0]), np.array([1, 2, 2]),
                       np.array([5.0, 2.0, 9.0]))
        out = minimax_path_weight(g, np.array([[0, 2]]))
        assert out[0] == 5.0

    def test_same_vertex_zero(self, tiny_graph):
        assert minimax_path_weight(tiny_graph, np.array([[1, 1]]))[0] == 0.0

    def test_disconnected_inf(self, forest_graph):
        out = minimax_path_weight(forest_graph, np.array([[0, 6]]))
        assert np.isinf(out[0])

    def test_reuses_precomputed_forest(self, tiny_graph):
        forest = kruskal(tiny_graph)
        a = minimax_path_weight(tiny_graph, np.array([[0, 3]]), forest)
        b = minimax_path_weight(tiny_graph, np.array([[0, 3]]))
        assert a[0] == b[0]

    def test_bad_shape(self, tiny_graph):
        with pytest.raises(ValueError, match="shape"):
            minimax_path_weight(tiny_graph, np.array([0, 1, 2]))

    @pytest.mark.parametrize("pair", [[-1, 0], [0, -3], [3, 0], [0, 7]])
    def test_out_of_range_ids_raise(self, pair):
        # 0 -1- 1 -5- 2: a wrapped -1 would read vertex 2's answer (5.0)
        g = from_edges(3, np.array([0, 1]), np.array([1, 2]),
                       np.array([1.0, 5.0]))
        with pytest.raises(ValueError, match="vertex ids"):
            minimax_path_weight(g, np.array([pair]))

    def test_minimax_bounded_by_any_path(self):
        # minimax weight never exceeds the direct edge weight
        g = rmat(7, 5, rng=4)
        u, v, w = g.edge_endpoints()
        pairs = np.stack([u[:50], v[:50]], axis=1)
        out = minimax_path_weight(g, pairs)
        assert (out <= w[:50] + 1e-9).all()
