"""Integration-grade tests of the full accelerator simulation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Amst, AmstConfig
from repro.graph import (
    CSRGraph,
    from_edges,
    paper_example,
    preprocess,
    rmat,
    road_lattice,
)
from repro.mst import kruskal, validate_mst

CFG_MATRIX = {
    "full": AmstConfig.full(16, cache_vertices=64),
    "single-pe": AmstConfig.full(1, cache_vertices=64),
    "baseline": AmstConfig.baseline(cache_vertices=64),
    "no-siv": AmstConfig.full(4, cache_vertices=64).with_(
        skip_intra_vertices=False),
    "no-sie": AmstConfig.full(4, cache_vertices=64).with_(
        skip_intra_edges=False),
    "no-sew": AmstConfig.full(4, cache_vertices=64).with_(
        sort_edges_by_weight=False),
    "direct-cache": AmstConfig.full(4, cache_vertices=64).with_(
        hash_cache=False),
    "no-network": AmstConfig.full(4, cache_vertices=64).with_(
        use_sorting_network=False),
    "no-pipeline": AmstConfig.full(4, cache_vertices=64).with_(
        merge_rm_am=False, overlap_fm_cm=False),
    "huge-cache": AmstConfig.full(4, cache_vertices=1 << 16),
}


class TestCorrectnessMatrix:
    @pytest.mark.parametrize("cfg_name", list(CFG_MATRIX))
    def test_every_config_is_result_exact(self, cfg_name, zoo):
        cfg = CFG_MATRIX[cfg_name]
        for name, g in zoo:
            out = Amst(cfg).run(g)
            validate_mst(g, out.result), f"{cfg_name}/{name}"

    def test_deterministic(self):
        g = rmat(8, 6, rng=3)
        cfg = AmstConfig.full(8, cache_vertices=64)
        a = Amst(cfg).run(g)
        b = Amst(cfg).run(g)
        assert np.array_equal(a.result.edge_ids, b.result.edge_ids)
        assert a.report.total_cycles == b.report.total_cycles
        assert a.report.dram_blocks == b.report.dram_blocks

    def test_same_forest_as_reference_boruvka(self):
        from repro.mst import boruvka

        g = rmat(9, 8, rng=4)
        amst = Amst(AmstConfig.full(8, cache_vertices=128)).run(g)
        ref = boruvka(preprocess(g).graph)
        assert np.isclose(amst.result.total_weight, ref.total_weight)
        assert amst.result.iterations == ref.iterations


class TestEdgeCases:
    def test_single_vertex(self):
        g = from_edges(1, np.array([], dtype=int), np.array([], dtype=int))
        out = Amst(AmstConfig.full(4, cache_vertices=4)).run(g)
        assert out.result.num_edges == 0
        assert out.result.num_components == 1
        assert out.result.iterations == 0

    def test_no_edges_many_vertices(self):
        g = from_edges(50, np.array([], dtype=int), np.array([], dtype=int))
        out = Amst(AmstConfig.full(4, cache_vertices=4)).run(g)
        assert out.result.num_components == 50

    def test_single_edge(self):
        g = from_edges(2, np.array([0]), np.array([1]), np.array([3.0]))
        out = Amst(AmstConfig.full(4, cache_vertices=4)).run(g)
        assert out.result.num_edges == 1
        assert out.result.total_weight == 3.0
        assert out.result.iterations == 1

    def test_disconnected(self, forest_graph):
        out = Amst(AmstConfig.full(4, cache_vertices=4)).run(forest_graph)
        validate_mst(forest_graph, out.result)
        assert out.result.num_components == 3

    def test_equal_weights_everywhere(self):
        g = from_edges(
            6,
            np.array([0, 1, 2, 3, 4, 0, 1, 2]),
            np.array([1, 2, 3, 4, 5, 3, 4, 5]),
            np.ones(8),
        )
        out = Amst(AmstConfig.full(4, cache_vertices=8)).run(g)
        validate_mst(g, out.result)

    def test_max_iterations_stops_early(self):
        g = road_lattice(12, 12, rng=0)
        out = Amst(AmstConfig.full(4, cache_vertices=16)).run(
            g, max_iterations=1
        )
        assert out.result.iterations == 1

    def test_default_config(self):
        out = Amst().run(paper_example())
        validate_mst(paper_example(), out.result)


def _bridged_triangles(bridge_weight):
    """Triangles 0-1-2 and 3-4-5 joined by the bridge 2-3; returns the
    graph and the bridge's undirected edge id."""
    g = from_edges(6, np.array([0, 1, 2, 3, 4, 5, 2]),
                   np.array([1, 2, 0, 4, 5, 3, 3]),
                   np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, bridge_weight]))
    u, v, _ = g.edge_endpoints()
    return g, int(np.flatnonzero((u == 2) & (v == 3))[0])


WEIGHT_CONTRACT_CFGS = ("full", "no-sew", "baseline")


class TestWeightContract:
    """NaN and +inf weights are rejected: the MinEdge table's "no edge
    yet" is +inf, so such an edge could never be committed."""

    @pytest.mark.parametrize("cfg_name", WEIGHT_CONTRACT_CFGS)
    @pytest.mark.parametrize("w", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nan_or_inf_weight_raises(self, w, cfg_name):
        g, bridge = _bridged_triangles(w)
        with pytest.raises(ValueError, match=f"edge {bridge} has weight"):
            Amst(CFG_MATRIX[cfg_name]).run(g)

    @pytest.mark.parametrize("cfg_name", WEIGHT_CONTRACT_CFGS)
    @pytest.mark.parametrize("w", [-np.inf, -2.5, -0.0],
                             ids=["-inf", "negative", "-0.0"])
    def test_other_weights_match_kruskal(self, w, cfg_name):
        g, bridge = _bridged_triangles(w)
        out = Amst(CFG_MATRIX[cfg_name]).run(g)
        ref = kruskal(g)
        assert np.array_equal(np.sort(out.result.edge_ids),
                              np.sort(ref.edge_ids))
        assert bridge in out.result.edge_ids
        assert out.result.num_components == 1


class TestSharedPreprocessing:
    def test_preprocessed_reuse_gives_same_result(self):
        g = rmat(8, 6, rng=5)
        pp = preprocess(g, reorder="sort", sort_edges_by_weight=True)
        cfg = AmstConfig.full(4, cache_vertices=64)
        a = Amst(cfg).run(g)
        b = Amst(cfg).run(g, preprocessed=pp)
        assert np.isclose(a.result.total_weight, b.result.total_weight)

    def test_unsorted_preprocessing_rejected_under_sew(self):
        # adjacency-ordered edges would make the first external edge the
        # vertex's candidate although it is not its lightest
        g = rmat(8, 6, rng=3)
        pp = preprocess(g, sort_edges_by_weight=False)
        with pytest.raises(ValueError, match="not in \\(weight, eid\\)"):
            Amst(AmstConfig.full(4, cache_vertices=16)).run(
                g, preprocessed=pp)

    def test_other_graphs_preprocessing_rejected(self):
        g = rmat(8, 6, rng=3)
        pp = preprocess(road_lattice(10, 10))
        with pytest.raises(ValueError, match="input graph has 256"):
            Amst(AmstConfig.full(4, cache_vertices=16)).run(
                g, preprocessed=pp)

    def test_equal_weights_out_of_eid_order_rejected(self):
        # the weights ascend, but SEW orders a tie by eid
        g = from_edges(3, [0, 0], [1, 2], [1.0, 1.0])
        pp = preprocess(g, reorder="identity")
        h = pp.graph
        swap = np.array([1, 0, 2, 3])  # vertex 0's two half-edges
        flipped = replace(pp, graph=CSRGraph(
            h.indptr, h.dst[swap], h.weight[swap], h.eid[swap]))
        with pytest.raises(ValueError, match="SEW is on"):
            Amst(AmstConfig.full(4, cache_vertices=16)).run(
                g, preprocessed=flipped)

    def test_reorder_mismatch_allowed(self):
        # the reordering sweep runs one configuration on every strategy
        g = rmat(8, 6, rng=3)
        pp = preprocess(g, reorder="dbg")
        out = Amst(AmstConfig.full(4, cache_vertices=16)).run(
            g, preprocessed=pp)
        assert np.array_equal(out.result.edge_ids, kruskal(g).edge_ids)


class TestEventSanity:
    def _run(self, cfg=None):
        g = rmat(8, 6, rng=7)
        cfg = cfg or AmstConfig.full(4, cache_vertices=64)
        return g, Amst(cfg).run(g)

    def test_all_counters_non_negative(self):
        _, out = self._run()
        for ev in out.log.iterations:
            for key, value in ev.counts.items():
                assert value >= 0, key

    def test_ie_marks_bounded_by_half_edges(self):
        g, out = self._run()
        assert out.log.total("fm.ie_marks") <= g.num_half_edges

    def test_iv_marks_bounded_by_vertices(self):
        g, out = self._run()
        assert out.log.total("fm.iv_marks") <= g.num_vertices

    def test_appends_equal_forest_size(self):
        g, out = self._run()
        assert out.log.total("rape.appends") == out.result.num_edges

    def test_candidates_decrease_over_iterations(self):
        g, out = self._run()
        cand = [ev.get("fm.candidates") for ev in out.log.iterations]
        assert cand[0] >= cand[-1]

    def test_parent_lookups_bounded_by_examined(self):
        g, out = self._run()
        for ev in out.log.iterations:
            assert ev.get("fm.parent_lookups") <= ev.get("fm.edges_examined")

    def test_mirror_removals_bounded(self):
        g, out = self._run()
        assert out.log.total("rape.mirrors_removed") <= g.num_vertices

    def test_cache_utilization_recorded(self):
        _, out = self._run()
        for ev in out.log.iterations:
            assert 0.0 <= ev.parent_cache_utilization <= 1.0
            assert 0.0 <= ev.minedge_cache_utilization <= 1.0

    def test_dram_blocks_match_hbm_model(self):
        _, out = self._run()
        assert out.report.dram_blocks == out.state.hbm.blocks()

    def test_no_sew_examines_more_edges(self):
        g = rmat(8, 6, rng=7)
        sew = Amst(AmstConfig.full(4, cache_vertices=64)).run(g)
        nosew = Amst(AmstConfig.full(4, cache_vertices=64).with_(
            sort_edges_by_weight=False)).run(g)
        assert (nosew.log.total("fm.edges_examined")
                > sew.log.total("fm.edges_examined"))

    def test_siv_skips_vertices(self):
        g = road_lattice(15, 15, rng=1)
        out = Amst(AmstConfig.full(4, cache_vertices=64)).run(g)
        assert out.log.total("fm.iv_skipped") > 0

    def test_final_state_all_one_component(self):
        g = rmat(8, 6, rng=8)
        out = Amst(AmstConfig.full(4, cache_vertices=64)).run(g)
        roots = out.state.resolve_roots()
        # number of distinct roots among non-isolated == component count
        assert np.unique(roots).size == out.result.num_components
