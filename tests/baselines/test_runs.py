"""Unit tests for the MASTIFF and Gunrock baseline runners."""

import numpy as np

from repro.baselines import run_gunrock, run_mastiff
from repro.mst import validate_mst


class TestMastiff:
    def test_correct_forest(self, zoo):
        for name, g in zoo:
            run = run_mastiff(g)
            validate_mst(g, run.result), name

    def test_perf_attached(self, rmat_graph):
        run = run_mastiff(rmat_graph)
        assert run.perf.platform.startswith("Xeon")
        assert run.perf.seconds > 0
        assert run.counts.iterations == run.result.iterations

    def test_atomic_share_significant(self, road_graph):
        # Section III-C: atomics are a large share on hard graphs
        run = run_mastiff(road_graph)
        assert run.perf.atomic_share > 0.05


class TestGunrock:
    def test_correct_forest(self, zoo):
        for name, g in zoo:
            run = run_gunrock(g)
            validate_mst(g, run.result), name

    def test_perf_attached(self, rmat_graph):
        run = run_gunrock(rmat_graph)
        assert run.perf.platform == "Titan V"
        assert run.perf.power_watts == 250.0

    def test_same_forest_weight_as_mastiff(self, rmat_graph):
        m = run_mastiff(rmat_graph)
        g = run_gunrock(rmat_graph)
        assert np.isclose(m.result.total_weight, g.result.total_weight)
