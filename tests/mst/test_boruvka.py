"""Unit tests for the instrumented Borůvka reference."""

import numpy as np

from repro.graph import cycle_graph, rmat, road_lattice
from repro.mst import STAGE_NAMES, boruvka, validate_mst


class TestCorrectness:
    def test_matches_kruskal_on_zoo(self, zoo):
        for name, g in zoo:
            validate_mst(g, boruvka(g)), name

    def test_paper_example_two_iterations(self, paper_graph):
        r = boruvka(paper_graph)
        assert r.iterations == 2
        validate_mst(paper_graph, r)

    def test_equal_weight_mirror_handling(self):
        # all-equal weights: mirror removal must still terminate correctly
        g = cycle_graph(8, weights=np.ones(8))
        r = boruvka(g)
        assert r.num_edges == 7
        assert r.total_weight == 7.0

    def test_max_iterations_cap(self):
        g = rmat(7, 4, rng=0)
        r = boruvka(g, max_iterations=1)
        assert r.iterations == 1
        # partial run: forest incomplete but acyclic
        assert r.num_edges < g.num_vertices


class TestInstrumentation:
    def test_stage_fractions_sum_to_one(self):
        stats = boruvka(rmat(8, 6, rng=1)).extras["stats"]
        assert np.isclose(stats.stage_fractions().sum(), 1.0)
        assert np.isclose(stats.stage_op_fractions().sum(), 1.0)

    def test_stage1_dominates_ops(self):
        # Fig 3a shape: Stage 1 is the bottleneck
        stats = boruvka(rmat(10, 16, rng=2)).extras["stats"]
        ops = stats.stage_op_fractions()
        assert ops[0] > 0.5
        assert ops.argmax() == 0

    def test_iteration_stats_recorded(self):
        r = boruvka(road_lattice(12, 12, rng=3))
        stats = r.extras["stats"]
        assert len(stats.iterations) == r.iterations
        for i, it in enumerate(stats.iterations):
            assert it.iteration == i
            assert 0.0 <= it.useless_ratio <= 1.0
            assert it.half_edges_scanned > 0

    def test_useless_ratio_grows(self):
        # Fig 3c shape: intra-edge share rises as components merge
        stats = boruvka(road_lattice(30, 30, rng=4)).extras["stats"]
        ratios = [it.useless_ratio for it in stats.iterations]
        assert ratios[0] == 0.0  # all singleton components at start
        assert ratios[-1] > ratios[0]
        assert max(ratios) > 0.3

    def test_first_iteration_has_no_intra_edges(self, zoo):
        for name, g in zoo:
            stats = boruvka(g).extras["stats"]
            assert stats.iterations[0].intra_half_edges == 0, name

    def test_average_useless_ratio_bounds(self):
        stats = boruvka(rmat(9, 8, rng=5)).extras["stats"]
        assert 0.0 <= stats.average_useless_ratio() <= 1.0

    def test_components_shrink_at_least_half(self):
        g = rmat(9, 8, rng=6)
        isolated = int((g.degrees() == 0).sum())
        stats = boruvka(g).extras["stats"]
        counts = [it.num_components_before for it in stats.iterations]
        # Borůvka halving guarantee applies to non-isolated components
        for a, b in zip(counts, counts[1:]):
            assert (b - isolated) <= ((a - isolated) + 1) // 2 + 1

    def test_stage_names_exported(self):
        assert len(STAGE_NAMES) == 4

    def test_empty_stats_edge_cases(self):
        from repro.mst.boruvka import BoruvkaStats

        s = BoruvkaStats()
        assert s.stage_fractions().sum() == 0.0
        assert s.stage_op_fractions().sum() == 0.0
        assert s.average_useless_ratio() == 0.0
