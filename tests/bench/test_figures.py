"""Smoke tests: every reproduced table/figure runs and has the right shape.

Sizes are tiny (size=0.25, 2-3 datasets) so the whole module stays fast;
the full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

from repro.bench import (
    fig3a_stage_breakdown,
    fig3b_neighborhood_overlap,
    fig3c_useless_computation,
    fig10_cache_utilization,
    fig13_single_pe_ablation,
    fig14_parallel_scaling,
    fig15_platform_comparison,
    fig16_resource_utilization,
    mastiff_atomic_share,
    table1_datasets,
    table2_preprocessing,
)

KEYS = ("EF", "RC")
KW = dict(size=0.25, seed=0, keys=KEYS)


class TestTables:
    def test_table1(self):
        res = table1_datasets(size=0.25)
        assert len(res.rows) == 10
        assert res.experiment == "Table I"

    def test_table2(self):
        # RC at half scale: big enough that wall-clock timing noise
        # cannot flip the reorder-vs-MST comparison
        res = table2_preprocessing(size=0.5, seed=0, keys=("RC",))
        assert len(res.rows) == 1
        # preprocessing must be cheaper than MST (paper's Table II claim)
        for ratio in res.column("Reorder/MST"):
            assert ratio < 1.0


class TestMotivation:
    def test_fig3a_stage1_dominates(self):
        res = fig3a_stage_breakdown(**KW)
        assert len(res.rows) == len(KEYS) + 1  # + AVG row
        avg = res.rows[-1]
        assert avg[1] > 50.0  # Stage 1 share of the average row

    def test_fig3b_low_overlap(self):
        res = fig3b_neighborhood_overlap(**KW)
        for row in res.rows:
            for v in row[1:]:
                assert 0.0 <= v <= 100.0

    def test_fig3c_useless_grows(self):
        res = fig3c_useless_computation(**KW)
        for row in res.rows:
            assert row[1] == 0.0  # iteration 0 has no intra edges
            assert row[-1] >= 0.0

    def test_atomic_share(self):
        res = mastiff_atomic_share(**KW)
        assert all(0 <= row[1] <= 100 for row in res.rows)


class TestArchitecture:
    def test_fig10(self):
        util, dram = fig10_cache_utilization(**KW)
        kinds = {row[2] for row in util.rows}
        assert kinds == {"direct", "hash"}
        for row in dram.rows:
            assert row[1] >= 0 and row[4] >= 0

    def test_fig13_monotone_time(self):
        res = fig13_single_pe_ablation(**KW)
        assert len(res.rows) == len(KEYS) * 5
        for key in KEYS:
            rows = [r for r in res.rows if r[0] == key]
            assert rows[0][1] == "BSL" and rows[0][4] == 1.0
            assert rows[-1][1] == "+SEW"
            assert rows[-1][4] < 1.0  # full stack beats BSL

    def test_fig14_speedup_grows(self):
        res = fig14_parallel_scaling(**KW, parallelisms=(1, 4, 16))
        for row in res.rows:
            plain = row[1:4]
            assert plain[0] == 1.0
            assert plain[2] > plain[0]
            piped = row[4:7]
            assert piped[2] >= plain[2] * 0.95  # pipeline helps (or ties)

    def test_fig15_amst_beats_cpu(self):
        res = fig15_platform_comparison(**KW)
        for row in res.rows:
            assert row[4] > 1.0  # vsCPU speedup on every dataset

    def test_fig16(self):
        res = fig16_resource_utilization()
        assert len(res.rows) == 5
        for row in res.rows:
            assert row[6]  # fits the U280
            assert row[5] > 210  # MHz
