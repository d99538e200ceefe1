"""Unit tests for Filter-Kruskal."""

import numpy as np

from repro.graph import erdos_renyi, from_edges, rmat
from repro.mst import filter_kruskal, kruskal, validate_mst


class TestFilterKruskal:
    def test_matches_kruskal_on_zoo(self, zoo):
        for name, g in zoo:
            validate_mst(g, filter_kruskal(g)), name

    def test_large_enough_to_recurse(self):
        # > _BASE_CASE edges so the partition/filter path actually runs
        g = rmat(10, 8, rng=3)
        assert g.num_edges > 1024
        assert filter_kruskal(g).same_forest_weight(kruskal(g))

    def test_equal_weights_degenerate_pivot(self):
        g = erdos_renyi(200, 3000, rng=1).reweight(
            np.ones(erdos_renyi(200, 3000, rng=1).num_edges))
        validate_mst(g, filter_kruskal(g))

    def test_identical_edge_set_with_unique_weights(self):
        g = rmat(9, 8, rng=4, weights="unique")
        assert np.array_equal(
            filter_kruskal(g).edge_ids, kruskal(g).edge_ids)

    def test_empty_graph(self):
        g = from_edges(5, np.array([], dtype=int), np.array([], dtype=int))
        r = filter_kruskal(g)
        assert r.num_edges == 0
        assert r.num_components == 5

    def test_disconnected(self, forest_graph):
        validate_mst(forest_graph, filter_kruskal(forest_graph))
