"""Unit tests for the performance model."""

import pytest

from repro.core import Amst, AmstConfig, build_report, fpga_power_watts
from repro.core.events import EventLog
from repro.core.perf import iteration_cycles
from repro.graph import preprocess, rmat, road_lattice


def _run(cfg, g=None):
    g = g if g is not None else rmat(8, 6, rng=1)
    return Amst(cfg).run(g)


class TestReport:
    def test_basic_fields(self):
        out = _run(AmstConfig.full(4, cache_vertices=64))
        r = out.report
        assert r.total_cycles > 0
        assert r.seconds > 0
        assert r.meps > 0
        assert r.dram_blocks >= r.dram_random_blocks >= 0
        assert r.compute_work > 0
        assert r.num_iterations == len(out.log.iterations)

    def test_summary_keys(self):
        r = _run(AmstConfig.full(4, cache_vertices=64)).report
        s = r.summary()
        assert {"iterations", "cycles", "seconds", "meps", "dram_blocks",
                "energy_j"} <= set(s)

    def test_energy_consistent(self):
        r = _run(AmstConfig.full(4, cache_vertices=64)).report
        assert r.energy_joules == pytest.approx(r.seconds * r.power_watts)

    def test_power_model_grows_with_pes(self):
        assert fpga_power_watts(16) > fpga_power_watts(1)
        assert fpga_power_watts(16) == pytest.approx(45.0)

    def test_empty_log(self):
        r = build_report(EventLog(), AmstConfig.full(4, cache_vertices=4), 0)
        assert r.total_cycles >= 1.0
        assert r.meps == 0 or r.num_edges == 0


class TestModelShape:
    def test_more_pes_fewer_cycles(self):
        g = rmat(9, 8, rng=2)
        pp = preprocess(g)
        cycles = []
        for p in (1, 4, 16):
            cfg = AmstConfig.full(p, cache_vertices=128)
            cycles.append(Amst(cfg).run(g, preprocessed=pp).report.total_cycles)
        assert cycles[0] > cycles[1] > cycles[2]

    def test_speedup_sublinear(self):
        # Fig 14 shape: 16 PEs < 16x (MinEdge writer serializes)
        g = rmat(9, 8, rng=2)
        pp = preprocess(g)
        c1 = Amst(AmstConfig.full(1, cache_vertices=128)).run(
            g, preprocessed=pp).report.total_cycles
        c16 = Amst(AmstConfig.full(16, cache_vertices=128)).run(
            g, preprocessed=pp).report.total_cycles
        assert 2.0 < c1 / c16 < 16.0

    def test_pipeline_hides_cycles(self):
        g = road_lattice(20, 20, rng=3)
        on = _run(AmstConfig.full(8, cache_vertices=64), g).report
        off = _run(AmstConfig.full(8, cache_vertices=64).with_(
            merge_rm_am=False, overlap_fm_cm=False), g).report
        assert on.total_cycles < off.total_cycles
        assert on.overlap_cycles_hidden > 0
        assert off.overlap_cycles_hidden == 0

    def test_baseline_slower_than_full(self):
        g = rmat(9, 8, rng=4)
        bsl = _run(AmstConfig.baseline(cache_vertices=128), g).report
        opt = _run(AmstConfig.full(1, cache_vertices=128), g).report
        assert opt.total_cycles < bsl.total_cycles
        assert opt.dram_blocks < bsl.dram_blocks

    def test_atomic_conflicts_cost_cycles(self):
        g = rmat(8, 8, rng=5)
        with_net = _run(AmstConfig.full(8, cache_vertices=128), g).report
        without = _run(AmstConfig.full(8, cache_vertices=128).with_(
            use_sorting_network=False), g).report
        assert without.total_cycles >= with_net.total_cycles

    def test_iteration_cycles_structure(self):
        g = rmat(8, 6, rng=6)
        cfg = AmstConfig.full(4, cache_vertices=64)
        out = Amst(cfg).run(g)
        it = iteration_cycles(out.log.iterations[0], cfg)
        for mod in ("fm", "rape", "cm"):
            assert it[mod].total >= 0
            assert it[mod].compute >= 0
            assert it[mod].dram >= 0
        assert 0.0 <= it["_cm_leaf_share"] <= 1.0

    def test_meps_scales_with_frequency(self):
        g = rmat(8, 6, rng=7)
        slow = _run(AmstConfig.full(4, cache_vertices=64).with_(
            frequency_mhz=110.0), g).report
        fast = _run(AmstConfig.full(4, cache_vertices=64).with_(
            frequency_mhz=220.0), g).report
        assert fast.meps == pytest.approx(2 * slow.meps, rel=1e-6)
