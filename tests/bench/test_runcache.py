"""Content-addressed run cache: keys, tiers, byte-identity of hits."""

import numpy as np
import pytest

from repro.bench.runcache import (
    RunCache,
    cached_certificate,
    cached_reference,
    config_fingerprint,
    graph_fingerprint,
    preprocess_options,
)
from repro.core import Amst, AmstConfig
from repro.graph import from_edges, rmat
from repro.mst import kruskal

CFG = AmstConfig.full(4, cache_vertices=64)


@pytest.fixture
def graph():
    return rmat(7, 6, rng=5)


class TestGraphFingerprint:
    def test_deterministic(self, graph):
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_equal_content_equal_fingerprint(self):
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0])
        a = from_edges(4, u, v, w)
        b = from_edges(4, u.copy(), v.copy(), w.copy())
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_weight_change_changes_fingerprint(self, graph):
        other = graph.reweight(np.arange(graph.num_edges) + 1.0)
        assert graph_fingerprint(other) != graph_fingerprint(graph)

    def test_isolated_vertex_changes_fingerprint(self):
        u = np.array([0], dtype=np.int64)
        v = np.array([1], dtype=np.int64)
        w = np.array([1.0])
        assert graph_fingerprint(from_edges(2, u, v, w)) != \
            graph_fingerprint(from_edges(3, u, v, w))


class TestConfigFingerprint:
    def test_any_knob_changes_key(self):
        base = config_fingerprint(CFG)
        assert config_fingerprint(CFG.with_(self_check=True)) != base
        assert config_fingerprint(CFG.with_(parallelism=8)) != base
        assert config_fingerprint(CFG.with_(hash_cache=False)) != base

    def test_equal_configs_equal_key(self):
        assert config_fingerprint(AmstConfig.full(4, cache_vertices=64)) \
            == config_fingerprint(CFG)

    def test_preprocess_options_mirror_amst_run(self):
        assert preprocess_options(CFG) == ("sort", True)
        assert preprocess_options(CFG.with_(use_hdc=False,
                                            hash_cache=False)) \
            == ("identity", True)
        assert preprocess_options(AmstConfig.baseline()) \
            == ("identity", False)


class TestLRUTier:
    def test_get_or_compute_caches(self):
        cache = RunCache()
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1
        assert cache.stats()["memory_hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = RunCache(max_memory_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_disables_memory(self):
        cache = RunCache(max_memory_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path, graph):
        a = RunCache(disk_dir=tmp_path)
        a.put("key", {"x": np.arange(4)})
        b = RunCache(disk_dir=tmp_path)  # fresh memory tier
        value = b.get("key")
        np.testing.assert_array_equal(value["x"], np.arange(4))
        assert b.stats()["disk_hits"] == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cache.put("key", 42)
        cache._disk_path("key").write_bytes(b"not a pickle")
        fresh = RunCache(disk_dir=tmp_path)
        assert fresh.get("key") is None

    def test_entry_naming_a_missing_module_is_a_miss(self, tmp_path):
        # e.g. an entry pickled before a module it references was
        # deleted: recomputed and overwritten, never a crash
        cache = RunCache(disk_dir=tmp_path)
        cache.put("key", 42)
        cache._disk_path("key").write_bytes(
            b"crepro_no_such_module\nGone\n.")
        fresh = RunCache(disk_dir=tmp_path)
        assert fresh.get("key") is None
        assert fresh.get_or_compute("key", lambda: 43) == 43
        assert RunCache(disk_dir=tmp_path).get("key") == 43

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMST_CACHE_DIR", str(tmp_path))
        cache = RunCache.from_env()
        assert cache.disk_dir == str(tmp_path)
        monkeypatch.delenv("AMST_CACHE_DIR")
        assert RunCache.from_env().disk_dir is None


class TestDomainHelpers:
    def test_cached_reference_identical(self, graph):
        cache = RunCache()
        direct = kruskal(graph)
        cached = cached_reference(graph, "kruskal", kruskal, cache=cache)
        again = cached_reference(graph, "kruskal", kruskal, cache=cache)
        assert again is cached
        np.testing.assert_array_equal(cached.edge_ids, direct.edge_ids)
        assert cached.total_weight == direct.total_weight

    def test_cached_reference_reads_the_oracles_entries(self, graph):
        # the ref: entries the oracle writes are the ones
        # cached_reference (and so the incremental engine) reads back
        from repro.verify import run_oracle

        cache = RunCache()
        run_oracle(graph, {}, cache=cache)
        misses = cache.stats()["misses"]
        cached = cached_reference(graph, "kruskal", kruskal, cache=cache)
        assert cache.stats()["misses"] == misses
        np.testing.assert_array_equal(cached.edge_ids,
                                      kruskal(graph).edge_ids)

    def test_oracle_entries_distinguish_configs(self, graph):
        from repro.verify import run_oracle

        cache = RunCache()
        run_oracle(graph, {"a": CFG, "b": CFG.with_(parallelism=8)},
                   cache=cache)
        entries = [k for k in cache._memory if k.startswith("oracle:")]
        assert len(entries) == 2

    def test_cached_certificate_matches_direct(self, graph):
        cache = RunCache()
        out = Amst(CFG).run(graph)
        direct = cached_certificate(graph, out.result.edge_ids)
        warm = cached_certificate(graph, out.result.edge_ids, cache=cache)
        again = cached_certificate(graph, out.result.edge_ids, cache=cache)
        assert direct is None  # the simulator's forest certifies
        assert warm == direct and again == direct
        assert cache.stats()["memory_hits"] >= 1

    def test_cached_certificate_caches_failure_verdicts(self, graph):
        cache = RunCache()
        # a deliberately non-minimum "forest": the heaviest edges
        bad = np.argsort(graph.edge_endpoints()[2])[-3:]
        first = cached_certificate(graph, bad, cache=cache)
        second = cached_certificate(graph, bad, cache=cache)
        assert first is not None and second == first

    def test_cached_certificate_keys_on_the_forest(self):
        # one graph, two forests, one cache: the second verdict must be
        # the second forest's, not the first one's read back
        g = rmat(8, 6, rng=3)
        cache = RunCache()
        good = kruskal(g).edge_ids
        heavy = np.argsort(g.edge_endpoints()[2])[-good.size:]
        assert cached_certificate(g, good, cache=cache) is None
        verdict = cached_certificate(g, heavy, cache=cache)
        assert verdict == cached_certificate(g, heavy)
        assert verdict == "not a spanning forest"

    def test_one_certification_per_distinct_forest(self, graph):
        from repro.verify import ORACLE_CONFIGS, run_oracle

        cache = RunCache()
        assert run_oracle(graph, ORACLE_CONFIGS, cache=cache).ok
        certs = [k for k in cache._memory if k.startswith("cert:")]
        assert len(certs) == 1  # every configuration's forest is one


class TestDeltaTierStats:
    """The ``delta:`` key family gets its own hit/miss sub-counters."""

    def test_delta_keys_classified_in_both_tiers(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cache.put("delta:a:b", {"x": 1})
        cache.put("ref:c:d", {"y": 2})
        assert cache.get("delta:a:b") == {"x": 1}  # memory
        assert cache.get("ref:c:d") == {"y": 2}
        fresh = RunCache(disk_dir=tmp_path)
        assert fresh.get("delta:a:b") == {"x": 1}  # disk
        s = cache.stats()
        assert s["delta_memory_hits"] == 1
        assert s["delta_disk_hits"] == 0
        assert s["memory_hits"] == 2  # delta hits are a sub-population
        assert fresh.stats()["delta_disk_hits"] == 1

    def test_note_miss_classifies_by_prefix(self):
        cache = RunCache()
        cache.note_miss("delta:a:b")
        cache.note_miss("run:c:d")
        s = cache.stats()
        assert s["misses"] == 2
        assert s["delta_misses"] == 1
        assert s["delta_hits"] == 0

    def test_get_alone_never_counts_a_miss(self):
        # by design: only note_miss/get_or_compute commit a miss, so a
        # probe that doesn't end in a computation stays invisible
        cache = RunCache()
        assert cache.get("delta:a:b") is None
        s = cache.stats()
        assert s["misses"] == 0
        assert s["delta_misses"] == 0

    def test_get_or_compute_routes_through_note_miss(self):
        cache = RunCache()
        cache.get_or_compute("delta:k", lambda: 7)
        cache.get_or_compute("delta:k", lambda: 8)
        s = cache.stats()
        assert s["delta_misses"] == 1
        assert s["delta_memory_hits"] == 1
        assert s["delta_hits"] == 1
