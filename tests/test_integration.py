"""End-to-end integration: the full pipeline on the dataset suite, with
the paper's qualitative claims asserted as invariants."""

import numpy as np
import pytest

from repro.baselines import run_gunrock, run_mastiff
from repro.baselines.platform import TITAN_V, XEON_4114, scaled_spec
from repro.bench import suite
from repro.core import Amst, AmstConfig
from repro.mst import boruvka, kruskal, prim, validate_mst

SIZE = 0.25
CACHE = 512


@pytest.fixture(scope="module")
def small_suite():
    return suite(size=SIZE, seed=0, keys=("EF", "GD", "RC", "CF"))


class TestCrossImplementationAgreement:
    def test_six_implementations_one_weight(self, small_suite):
        for key, g in small_suite.items():
            ref = kruskal(g)
            results = {
                "prim": prim(g),
                "boruvka": boruvka(g),
                "mastiff": run_mastiff(g).result,
                "gunrock": run_gunrock(g).result,
                "amst": Amst(AmstConfig.full(16, cache_vertices=CACHE)).run(
                    g).result,
            }
            for name, r in results.items():
                assert r.same_forest_weight(ref), f"{key}/{name}"

    def test_amst_validates_on_every_dataset(self, small_suite):
        cfg = AmstConfig.full(16, cache_vertices=CACHE)
        for key, g in small_suite.items():
            validate_mst(g, Amst(cfg).run(g).result)


class TestPaperShapeClaims:
    def test_stage1_is_the_bottleneck(self, small_suite):
        # Fig 3a (wall-time shares, matching the paper's measurement)
        for key, g in small_suite.items():
            stats = boruvka(g).extras["stats"]
            frac = stats.stage_fractions()
            assert frac[0] > 0.5 and frac.argmax() == 0, key

    def test_full_optimization_beats_baseline(self, small_suite):
        # Fig 13 end-to-end claim
        for key, g in small_suite.items():
            bsl = Amst(AmstConfig.baseline(cache_vertices=CACHE)).run(g)
            opt = Amst(AmstConfig.full(1, cache_vertices=CACHE)).run(g)
            assert opt.report.total_cycles < bsl.report.total_cycles, key
            assert opt.report.dram_blocks < bsl.report.dram_blocks, key

    def test_parallelism_scales_sublinearly(self, small_suite):
        # Fig 14
        g = small_suite["CF"]
        c1 = Amst(AmstConfig.full(1, cache_vertices=CACHE)).run(g)
        c16 = Amst(AmstConfig.full(16, cache_vertices=CACHE)).run(g)
        speedup = c1.report.total_cycles / c16.report.total_cycles
        assert 2.0 < speedup < 16.0

    def test_amst_beats_cpu_everywhere(self, small_suite):
        # Fig 15: AMST wins against the CPU on every dataset
        factor = CACHE / (512 * 1024)
        cpu_spec = scaled_spec(XEON_4114, factor)
        cfg = AmstConfig.full(16, cache_vertices=CACHE)
        for key, g in small_suite.items():
            a = Amst(cfg).run(g).report
            c = run_mastiff(g, cpu_spec).perf
            assert a.meps > c.meps, key

    def test_energy_ordering(self, small_suite):
        # Fig 15: FPGA most efficient, CPU least (on the big datasets)
        factor = CACHE / (512 * 1024)
        cpu_spec = scaled_spec(XEON_4114, factor)
        gpu_spec = scaled_spec(TITAN_V, factor)
        cfg = AmstConfig.full(16, cache_vertices=CACHE)
        g = small_suite["CF"]
        a = Amst(cfg).run(g).report
        c = run_mastiff(g, cpu_spec).perf
        u = run_gunrock(g, gpu_spec).perf
        assert a.energy_joules < u.energy_joules < c.energy_joules

    def test_hash_cache_helps_dram(self, small_suite):
        # Fig 10: the hash cache reduces Parent DRAM traffic
        g = small_suite["RC"]
        def parent_blocks(hashed):
            cfg = AmstConfig.full(16, cache_vertices=CACHE).with_(
                hash_cache=hashed)
            out = Amst(cfg).run(g)
            snap = out.state.hbm.snapshot()
            return sum(v["blocks"] for k, v in snap.items() if "parent" in k)
        assert parent_blocks(True) <= parent_blocks(False)

    def test_hash_cache_utilization_recovers(self, small_suite):
        # Fig 10a/b: direct cache decays, hash cache stays higher
        g = small_suite["RC"]
        utils = {}
        for hashed in (False, True):
            cfg = AmstConfig.full(16, cache_vertices=CACHE).with_(
                hash_cache=hashed)
            out = Amst(cfg).run(g)
            utils[hashed] = [
                ev.parent_cache_utilization for ev in out.log.iterations
            ]
        # by the final iterations the hash cache holds more live data
        assert np.mean(utils[True][2:]) >= np.mean(utils[False][2:])

    def test_useless_computation_grows_past_half(self, small_suite):
        # Fig 3c claim: after the second iteration most edges are internal
        g = small_suite["RC"]
        stats = boruvka(g).extras["stats"]
        late = [it.useless_ratio for it in stats.iterations[2:]]
        assert late and max(late) > 0.5
