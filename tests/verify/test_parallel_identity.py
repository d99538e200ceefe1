"""Cross-process / cached byte-identity of the multi-run stack.

Satellite of the zero-copy execution layer: every transport change —
shared-memory graph handles, process-pool fan-out, the content-addressed
run cache — must be *invisible* in the outputs.  Property tests drive
the adversarial graph strategies through:

* ``run_fabric(jobs=N)`` vs serial — identical edge-id sets, weights
  and modelled reports;
* ``run_oracle(cache=...)`` / ``run_oracle(jobs=N)`` vs plain — the
  same entries and the byte-identical formatted report;
* golden-trace recomputation with ``jobs=N`` (shared-memory path) vs
  serial — byte-identical JSON.

Pool spin-up per example is expensive, so example counts are small; the
deterministic suites in ``test_golden.py`` / ``test_scale_out.py`` carry
the bulk coverage.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.runcache import RunCache
from repro.core import AmstConfig
from repro.fabric import run_fabric
from repro.verify import run_oracle
from repro.verify.golden import compute_golden_records, serialize_record
from repro.verify.strategies import graphs

CFG = AmstConfig.full(4, cache_vertices=32)

POOLED = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
CACHED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ORACLE_CONFIGS = {
    "full": AmstConfig.full(4, cache_vertices=16),
    "no-hdc": AmstConfig(parallelism=2, cache_vertices=16,
                         use_hdc=False, hash_cache=False),
}


def _assert_scale_out_equal(a, b):
    np.testing.assert_array_equal(a.result.edge_ids, b.result.edge_ids)
    assert a.result.total_weight == b.result.total_weight
    assert a.result.num_components == b.result.num_components
    assert a.plan.stats.cut_edges == b.plan.stats.cut_edges
    assert a.local_seconds == b.local_seconds
    assert a.merge_seconds == b.merge_seconds
    for x, y in zip(a.local_reports, b.local_reports, strict=True):
        assert x.total_cycles == y.total_cycles
        assert x.dram_blocks == y.dram_blocks
        assert x.num_edges == y.num_edges
    for x, y in zip(a.local_forests, b.local_forests, strict=True):
        np.testing.assert_array_equal(x, y)


class TestScaleOutParallelIdentity:
    @POOLED
    @given(graphs(min_vertices=4, max_vertices=20, max_edges=48))
    def test_jobs_matches_serial(self, g):
        serial = run_fabric(g, 3, CFG)
        pooled = run_fabric(g, 3, CFG, jobs=2)
        _assert_scale_out_equal(serial, pooled)

    @POOLED
    @given(graphs(min_vertices=2, max_vertices=16, max_edges=40))
    def test_jobs_matches_serial_hash_strategy(self, g):
        serial = run_fabric(g, 2, CFG, partitioner="hash")
        pooled = run_fabric(g, 2, CFG, partitioner="hash", jobs=2)
        _assert_scale_out_equal(serial, pooled)


class TestOracleCacheIdentity:
    @CACHED
    @given(graphs(max_vertices=14, max_edges=30))
    def test_cached_oracle_matches_uncached(self, g):
        plain = run_oracle(g, ORACLE_CONFIGS)
        cache = RunCache()
        cold = run_oracle(g, ORACLE_CONFIGS, cache=cache)
        warm = run_oracle(g, ORACLE_CONFIGS, cache=cache)
        for other in (cold, warm):
            assert list(other.entries) == list(plain.entries)
            for name in plain.entries:
                np.testing.assert_array_equal(
                    other.entries[name].edge_ids,
                    plain.entries[name].edge_ids)
                assert other.entries[name].exact_weight == \
                    plain.entries[name].exact_weight
            assert other.format() == plain.format()
        assert cache.stats()["hits"] > 0  # the warm pass actually reused work

    @POOLED
    @given(graphs(max_vertices=14, max_edges=30))
    def test_parallel_oracle_matches_serial(self, g):
        serial = run_oracle(g, ORACLE_CONFIGS)
        pooled = run_oracle(g, ORACLE_CONFIGS, jobs=2)
        assert pooled.format() == serial.format()
        assert pooled.ok == serial.ok


class TestGoldenParallelIdentity:
    @pytest.mark.parametrize("names", [
        ["paper-full", "dup-forest-full", "dup-forest-nohdc"],
    ])
    def test_shared_memory_records_byte_identical(self, names):
        serial = compute_golden_records(names, jobs=1)
        pooled = compute_golden_records(names, jobs=2)
        for n in names:
            assert serialize_record(pooled[n]) == \
                serialize_record(serial[n])
