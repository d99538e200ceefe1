"""Unit tests for MSTResult and the validators."""

import numpy as np
import pytest

from repro.graph import rmat
from repro.mst import (
    MSTResult,
    forest_weight,
    is_spanning_forest,
    kruskal,
    validate_mst,
)


class TestMSTResult:
    def test_edge_ids_sorted(self):
        r = MSTResult(np.array([3, 1, 2]), 6.0, 1)
        assert r.edge_ids.tolist() == [1, 2, 3]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MSTResult(np.array([1, 1]), 2.0, 1)

    def test_same_forest_weight(self):
        a = MSTResult(np.array([0, 1]), 5.0, 1)
        b = MSTResult(np.array([0, 2]), 5.0, 1)
        c = MSTResult(np.array([0, 2]), 6.0, 1)
        assert a.same_forest_weight(b)
        assert not a.same_forest_weight(c)

    def test_num_edges(self):
        assert MSTResult(np.array([4, 7]), 1.0, 1).num_edges == 2


class TestValidators:
    def test_forest_weight(self, tiny_graph):
        r = kruskal(tiny_graph)
        assert forest_weight(tiny_graph, r.edge_ids) == r.total_weight

    def test_is_spanning_forest_accepts_mst(self, zoo):
        for name, g in zoo:
            assert is_spanning_forest(g, kruskal(g).edge_ids), name

    def test_rejects_cycle(self, tiny_graph):
        # edges 0-1, 0-2, 1-2 form a triangle
        u, v, _ = tiny_graph.edge_endpoints()
        tri = [e for e in range(tiny_graph.num_edges)
               if {int(u[e]), int(v[e])} <= {0, 1, 2}]
        assert not is_spanning_forest(tiny_graph, np.array(tri[:3]))

    def test_rejects_non_spanning(self, tiny_graph):
        r = kruskal(tiny_graph)
        assert not is_spanning_forest(tiny_graph, r.edge_ids[:-1])

    def test_rejects_bad_edge_id(self, tiny_graph):
        assert not is_spanning_forest(tiny_graph, np.array([999]))

    def test_validate_passes_optimal(self, tiny_graph):
        validate_mst(tiny_graph, kruskal(tiny_graph))

    def test_validate_rejects_suboptimal(self, tiny_graph):
        # spanning tree using the heavy edges
        u, v, w = tiny_graph.edge_endpoints()
        order = np.argsort(-w)
        from repro.mst import UnionFind

        dsu = UnionFind(4)
        chosen, weight = [], 0.0
        for e in order:
            if dsu.union(int(u[e]), int(v[e])):
                chosen.append(int(e))
                weight += float(w[e])
        bad = MSTResult(np.array(chosen), weight, 1)
        with pytest.raises(AssertionError, match="not minimal"):
            validate_mst(tiny_graph, bad)

    def test_validate_rejects_wrong_weight_claim(self, tiny_graph):
        good = kruskal(tiny_graph)
        lied = MSTResult(good.edge_ids, good.total_weight + 1, 1)
        with pytest.raises(AssertionError, match="claimed weight"):
            validate_mst(tiny_graph, lied)

    def test_validate_rejects_wrong_edge_count(self):
        g = rmat(6, 4, rng=0)
        good = kruskal(g)
        short = MSTResult(good.edge_ids[:-1],
                          forest_weight(g, good.edge_ids[:-1]),
                          good.num_components + 1)
        with pytest.raises(AssertionError):
            validate_mst(g, short)
