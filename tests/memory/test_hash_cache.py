"""Unit tests for the hash-based HDV cache (Fig 11d/e semantics)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory import CacheStats, HashHDVCache


class TestInit:
    def test_initially_holds_batch_zero(self):
        c = HashHDVCache(8, 100)
        assert c.lookup(np.arange(8)).all()  # ids 0..7 are batch 0
        assert not c.lookup(np.arange(8, 16)).any()

    def test_small_graph_leaves_empty_slots(self):
        c = HashHDVCache(8, 5)
        assert c.utilization() == 5 / 8

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            HashHDVCache(0, 10)


class TestReads:
    def test_hit_requires_batch_match(self):
        c = HashHDVCache(4, 100)
        # id 5 -> slot 1, batch 1; slot 1 holds batch 0 -> miss
        assert not c.lookup(np.array([5]))[0]
        assert c.lookup(np.array([1]))[0]

    def test_miss_does_not_fill(self):
        c = HashHDVCache(4, 100)
        c.lookup(np.array([5]))
        assert not c.lookup(np.array([5]))[0]  # still a miss

    def test_stats(self):
        c = HashHDVCache(4, 100)
        c.lookup(np.array([0, 5, 2]))
        assert c.stats.hits == 2
        assert c.stats.misses == 1


class TestWrites:
    def test_write_to_owned_slot(self):
        c = HashHDVCache(4, 100)
        assert c.write(np.array([2]))[0]  # batch 0 owns slot 2
        assert c.stats.cache_writes == 1

    def test_write_conflict_goes_to_dram(self):
        c = HashHDVCache(4, 100)
        # id 6 -> slot 2 batch 1; slot 2 live with batch 0
        assert not c.write(np.array([6]))[0]
        assert c.stats.dram_writes == 1

    def test_claim_after_clear(self):
        c = HashHDVCache(4, 100)
        c.mark_dead(np.array([2]))
        assert c.write(np.array([6]))[0]  # claims the cleared slot
        assert c.lookup(np.array([6]))[0]
        assert not c.lookup(np.array([2]))[0]  # old owner evicted

    def test_first_writer_wins_within_batch(self):
        c = HashHDVCache(4, 100)
        c.mark_dead(np.array([2]))
        # ids 6 and 10 both map to slot 2 (batches 1 and 2)
        flags = c.write(np.array([6, 10]))
        assert flags.tolist() == [True, False]
        assert c.lookup(np.array([6]))[0]

    def test_same_id_twice_in_batch_both_cache(self):
        c = HashHDVCache(4, 100)
        c.mark_dead(np.array([2]))
        flags = c.write(np.array([6, 6]))
        assert flags.tolist() == [True, True]


class TestInvalidation:
    def test_mark_dead_only_clears_owner(self):
        c = HashHDVCache(4, 100)
        c.mark_dead(np.array([6]))  # id 6 does not own slot 2
        assert c.lookup(np.array([2]))[0]  # batch-0 entry untouched

    def test_utilization_drops_and_recovers(self):
        c = HashHDVCache(8, 100)
        assert c.utilization() == 1.0
        c.mark_dead(np.arange(4))
        assert c.utilization() == 0.5
        c.write(np.arange(8, 12))  # batch-1 ids claim the freed slots
        assert c.utilization() == 1.0

    def test_invalidation_counted(self):
        c = HashHDVCache(8, 100)
        c.mark_dead(np.array([0, 1]))
        assert c.stats.invalidations == 2

    def test_reset(self):
        c = HashHDVCache(8, 100)
        c.mark_dead(np.arange(8))
        c.reset()
        assert c.utilization() == 1.0
        assert c.lookup(np.arange(8)).all()


class TestCacheStats:
    def test_merged_with(self):
        from repro.memory import CacheStats

        a = CacheStats(hits=1, misses=2, cache_writes=3, dram_writes=4,
                       invalidations=5)
        b = a.merged_with(a)
        assert b.hits == 2 and b.dram_accesses == 12

    def test_hit_rate_empty(self):
        from repro.memory import CacheStats

        assert CacheStats().hit_rate == 0.0


class BatchTagModel:
    """The batch-tag cache one access at a time: slot ``id % C`` holds
    the batch id ``id // C`` of its owner, or -1 when empty."""

    def __init__(self, capacity, num_vertices):
        self.capacity = capacity
        self.num_vertices = num_vertices
        self.reset()

    def reset(self):
        self.tag = [0 if s < self.num_vertices else -1
                    for s in range(self.capacity)]
        self.stats = CacheStats()

    def _held(self, v):
        slot, batch = divmod(v, self.capacity)[::-1]
        return self.tag[slot] == batch

    def lookup(self, ids):
        hits = [self._held(v) for v in ids]
        self.stats.accesses += len(ids)
        self.stats.hits += sum(hits)
        self.stats.misses += len(ids) - sum(hits)
        return hits

    def write(self, ids):
        cached = []
        for v in ids:
            slot, batch = v % self.capacity, v // self.capacity
            if self.tag[slot] == -1:  # the first write claims an empty slot
                self.tag[slot] = batch
            cached.append(self.tag[slot] == batch)
        self.stats.writes += len(ids)
        self.stats.cache_writes += sum(cached)
        self.stats.dram_writes += len(ids) - sum(cached)
        return cached

    def mark_dead(self, ids):
        # every id is tested against the slots as the call found them
        owned = [v for v in ids if self._held(v)]
        for v in owned:
            self.tag[v % self.capacity] = -1
        self.stats.invalidations += len(owned)

    def utilization(self):
        return sum(t != -1 for t in self.tag) / self.capacity


@st.composite
def cache_sessions(draw):
    """A capacity, a vertex count below or above it, and a list of
    operations over ids that share few slots (repeats within a batch)."""
    capacity = draw(st.sampled_from([1, 2, 5, 16, 4096, 5000]))
    n = draw(st.one_of(st.integers(1, capacity),
                       st.integers(capacity + 1, 4 * capacity + 3)))
    slots = draw(st.lists(st.integers(0, min(capacity, n) - 1),
                          min_size=1, max_size=3))
    batches = range((n - 1) // capacity + 1)
    pool = sorted({b * capacity + s for b in batches for s in slots
                   if b * capacity + s < n})
    ids = st.lists(st.sampled_from(pool), max_size=12)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(["lookup", "write", "mark_dead"]), ids),
        st.just(("reset", []))), max_size=25))
    return capacity, n, pool, ops


class TestAgainstScalarModel:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cache_sessions())
    def test_matches_batch_tag_model(self, session):
        capacity, n, pool, ops = session
        cache = HashHDVCache(capacity, n)
        model = BatchTagModel(capacity, n)
        for op, ids in ops:
            if op == "reset":
                cache.reset()
                model.reset()
            else:
                got = getattr(cache, op)(np.array(ids, dtype=np.int64))
                want = getattr(model, op)(ids)
            if op in ("lookup", "write"):
                assert np.asarray(got).tolist() == want, op
            assert cache.stats == model.stats, op
            assert cache.utilization() == model.utilization()
            assert cache.contains(np.array(pool)).tolist() == [
                model._held(v) for v in pool]
