"""Unit tests for the AMST preprocessing pipeline."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    dbg,
    from_edges,
    identity_order,
    is_weight_sorted,
    preprocess,
    rmat,
    sort_by_degree,
)
from repro.mst import kruskal
from repro.verify.strategies import graphs


class TestPreprocess:
    def test_default_weight_sorted(self):
        g = rmat(8, 6, rng=0)
        pp = preprocess(g)
        assert is_weight_sorted(pp.graph)

    def test_no_sort_keeps_adjacency_order(self):
        g = rmat(8, 6, rng=0)
        pp = preprocess(g, sort_edges_by_weight=False)
        for v in range(pp.graph.num_vertices):
            dst, _, _ = pp.graph.edges_of(v)
            assert (np.diff(dst) >= 0).all()

    @pytest.mark.parametrize("strategy", ["sort", "dbg", "identity"])
    def test_strategies_preserve_mst_weight(self, strategy):
        g = rmat(8, 6, rng=1)
        pp = preprocess(g, reorder=strategy)
        assert np.isclose(
            kruskal(g).total_weight, kruskal(pp.graph).total_weight
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown reorder"):
            preprocess(rmat(5, 4, rng=0), reorder="voodoo")

    def test_timings_recorded(self):
        pp = preprocess(rmat(8, 6, rng=0))
        assert pp.reorder_seconds >= 0
        assert pp.sort_seconds >= 0
        assert pp.total_seconds == pp.reorder_seconds + pp.sort_seconds

    def test_reorder_result_attached(self):
        g = rmat(7, 4, rng=0)
        pp = preprocess(g)
        assert pp.reorder.perm.shape == (g.num_vertices,)


class TestIsWeightSorted:
    def test_detects_unsorted(self):
        g = rmat(8, 6, rng=0)  # adjacency order, not weight order
        pp_sorted = preprocess(g).graph
        assert is_weight_sorted(pp_sorted)
        # shuffle within a vertex to break the invariant
        unsorted = preprocess(g, sort_edges_by_weight=False).graph
        # random weights in dst order are almost surely not weight-sorted
        assert not is_weight_sorted(unsorted)

    def test_trivial_graphs_sorted(self):
        from repro.graph import path_graph
        assert is_weight_sorted(path_graph(2))

    def test_equal_weights_need_eid_order(self):
        g = from_edges(3, [0, 0], [1, 2], [1.0, 1.0])
        h = preprocess(g, reorder="identity").graph
        assert is_weight_sorted(h)
        swap = np.array([1, 0, 2, 3])  # vertex 0's two half-edges
        assert not is_weight_sorted(CSRGraph(
            h.indptr, h.dst[swap], h.weight[swap], h.eid[swap]))

    def test_nan_weights_sort_last(self):
        g = from_edges(3, [0, 0, 1], [1, 2, 2], [np.nan, 1.0, np.nan])
        assert is_weight_sorted(preprocess(g).graph)
        assert not is_weight_sorted(preprocess(
            g, sort_edges_by_weight=False).graph)


#: the reorder strategies preprocess() accepts, by name
STRATEGIES = {"sort": sort_by_degree, "dbg": dbg, "identity": identity_order}


class TestPreprocessMatchesRelabelThenSort:
    """preprocess() builds the run graph the two-step way would."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graphs(), st.sampled_from(sorted(STRATEGIES)), st.booleans())
    def test_equals_strategy_then_sort_edges(self, g, reorder, sew):
        pp = preprocess(g, reorder=reorder, sort_edges_by_weight=sew)
        rr = STRATEGIES[reorder](g)
        want = rr.graph.sort_edges(by_weight=sew)
        for name in ("indptr", "dst", "weight", "eid"):
            assert (getattr(pp.graph, name).tobytes()
                    == getattr(want, name).tobytes()), name
        assert pp.reorder.perm.tobytes() == rr.perm.tobytes()
        assert pp.reorder.inverse.tobytes() == rr.inverse.tobytes()
        assert pp.reorder.graph is pp.graph
