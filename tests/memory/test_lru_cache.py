"""Unit tests for the conventional LRU cache model."""

import numpy as np
import pytest

from repro.memory import LRUCache


class TestBasics:
    def test_cold_misses_then_hits(self):
        c = LRUCache(16, ways=4)
        ids = np.array([1, 2, 3])
        assert not c.lookup(ids).any()  # cold
        assert c.lookup(ids).all()  # warm

    def test_write_allocates(self):
        c = LRUCache(16, ways=4)
        c.write(np.array([7]))
        assert c.lookup(np.array([7]))[0]

    def test_lru_eviction_order(self):
        c = LRUCache(4, ways=4)  # one set, 4 ways
        c.lookup(np.array([0, 1, 2, 3]))  # fill
        c.lookup(np.array([0]))  # refresh 0
        c.lookup(np.array([4]))  # evicts LRU == 1
        hits = c.lookup(np.array([0, 1]))
        assert hits.tolist() == [True, False]

    def test_set_isolation(self):
        c = LRUCache(8, ways=4)  # 2 sets
        evens = np.array([0, 2, 4, 6, 8])  # all set 0
        c.lookup(evens)
        assert not c.lookup(np.array([1]))[0]  # set 1 untouched
        assert c.lookup(np.array([8]))[0]

    def test_utilization(self):
        c = LRUCache(8, ways=4)
        assert c.utilization() == 0.0
        c.lookup(np.array([0, 1]))
        assert c.utilization() == 0.25

    def test_mark_dead_is_noop_for_contents(self):
        c = LRUCache(8, ways=4)
        c.lookup(np.array([3]))
        c.mark_dead(np.array([3]))
        assert c.lookup(np.array([3]))[0]  # still resident

    def test_contains_no_stats(self):
        c = LRUCache(8, ways=4)
        c.contains(np.array([1, 2]))
        assert c.stats.lookups == 0

    def test_reset(self):
        c = LRUCache(8, ways=4)
        c.lookup(np.array([1]))
        c.reset()
        assert c.utilization() == 0.0
        assert c.stats.lookups == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        with pytest.raises(ValueError, match="multiple"):
            LRUCache(10, ways=4)


class TestIdRange:
    @pytest.mark.parametrize("bad", [-1, 1 << 31])
    def test_ids_outside_the_vertex_range_raise(self, bad):
        # the replay packs (block, position) into one int64 sort key and
        # numbers empty ways with negative pseudo ids
        cache = LRUCache(16, ways=8)
        with pytest.raises(ValueError, match="vertex ids"):
            cache.lookup(np.array([3, bad]))
        assert cache.stats.accesses == 0

    def test_largest_vertex_id_replays(self):
        cache = LRUCache(16, ways=8)
        ids = np.array([(1 << 31) - 1, 0, (1 << 31) - 1])
        np.testing.assert_array_equal(cache.lookup(ids), [False, False, True])


class TestMotivation:
    def test_hdv_beats_lru_on_powerlaw_stream(self):
        """Section III-A's claim: the reuse-poor MST access stream defeats
        LRU, while degree-targeted residency captures the hot vertices."""
        from repro.core import Amst, AmstConfig
        from repro.graph import rmat

        g = rmat(9, 10, rng=5)
        cap = 64
        base = AmstConfig.full(8, cache_vertices=cap)
        hdv = Amst(base).run(g)
        lru = Amst(base.with_(lru_cache=True)).run(g)
        assert lru.result.same_forest_weight(hdv.result)
        assert (hdv.state.parent_cache.stats.hit_rate
                >= lru.state.parent_cache.stats.hit_rate)
