"""Property-based equivalence: vectorized LRU vs the scalar oracle.

The vectorized :class:`LRUCache` claims *byte-identical* behaviour to
:class:`ScalarLRUCache` (same tags, same LRU stamps, same clock, same
stats) for any interleaving of the batch API.  Hypothesis drives random
op streams over a grid of geometries; every step compares the returned
hit vectors and the full internal state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import LRUCache, ScalarLRUCache

_OPS = ("lookup", "write", "contains", "mark_dead")


def _assert_same_state(vec: LRUCache, ref: ScalarLRUCache) -> None:
    np.testing.assert_array_equal(vec._tags, ref._tags)
    np.testing.assert_array_equal(vec._stamp, ref._stamp)
    assert vec._clock == ref._clock
    assert vec.stats == ref.stats
    assert vec.utilization() == ref.utilization()


def _run_stream(capacity, ways, ops):
    vec = LRUCache(capacity, ways=ways)
    ref = ScalarLRUCache(capacity, ways=ways)
    for kind, ids in ops:
        got = getattr(vec, kind)(ids)
        want = getattr(ref, kind)(ids)
        if got is not None or want is not None:
            np.testing.assert_array_equal(got, want, err_msg=kind)
        _assert_same_state(vec, ref)


@given(
    ways=st.sampled_from([1, 2, 4, 8]),
    sets=st.sampled_from([1, 2, 3, 16]),
    spread=st.sampled_from([1, 4, 64]),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_random_streams_byte_identical(ways, sets, spread, seed, n_ops):
    capacity = ways * sets
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = _OPS[int(rng.integers(len(_OPS)))]
        size = int(rng.integers(0, 120))
        # spread=1 forces heavy conflict/eviction churn; 64 is sparse
        ids = rng.integers(0, spread * capacity + 1, size=size)
        ops.append((kind, ids.astype(np.int64)))
    _run_stream(capacity, ways, ops)


def test_single_set_worst_case():
    """Everything maps to one set — the vectorized path degenerates to
    one row replayed for the whole stream length."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 40, size=3000).astype(np.int64) * 4  # set 0 only
    _run_stream(16, ways=4, ops=[("lookup", ids), ("write", ids[::-1])])


def test_empty_and_singleton_batches():
    _run_stream(8, ways=2, ops=[
        ("lookup", np.empty(0, dtype=np.int64)),
        ("lookup", np.array([5])),
        ("contains", np.empty(0, dtype=np.int64)),
        ("write", np.array([5])),
    ])


def test_duplicate_ids_in_one_batch():
    """Repeats within a batch must see each other's allocations."""
    ids = np.array([3, 3, 11, 3, 11, 19, 3], dtype=np.int64)  # one set
    vec = LRUCache(8, ways=2)
    ref = ScalarLRUCache(8, ways=2)
    np.testing.assert_array_equal(vec.lookup(ids), ref.lookup(ids))
    _assert_same_state(vec, ref)


def _batches(rng, ids, cuts):
    """Split one stream into alternating lookup/write batches."""
    bounds = np.sort(rng.integers(0, ids.size + 1, size=cuts))
    return [(("lookup", "write")[k % 2], part)
            for k, part in enumerate(np.split(ids, bounds))]


@given(
    ways=st.sampled_from([2, 4, 8]),
    sets=st.sampled_from([1, 2, 3]),
    runs=st.lists(st.sampled_from([1, 5, 17, 33, 65, 129, 400]),
                  min_size=2, max_size=12),
    pool=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_long_reuse_windows(ways, sets, runs, pool, seed, cuts):
    """A hot set of ``ways - 1`` blocks with rare cold blocks.

    Each cold access looks back over the whole hot run before it (up to
    400 accesses): a re-touched cold block still hits after the run, and
    a new one evicts the cold block touched before the run.
    """
    rng = np.random.default_rng(seed)
    hot = np.arange(ways - 1) * sets  # all in set 0
    cold = (ways - 1 + np.arange(pool)) * sets
    stream = []
    for r in runs:
        stream.append(rng.choice(hot, size=r))
        stream.append(rng.choice(cold, size=1))
    ids = np.concatenate(stream).astype(np.int64)
    if sets > 1:  # light traffic in the other sets
        noise = rng.random(ids.size) < 0.1
        ids[noise] = rng.integers(0, 4 * ways, noise.sum()) * sets + 1
    _run_stream(ways * sets, ways, _batches(rng, ids, cuts))


@pytest.mark.parametrize("ways", [2, 8])
def test_scans_past_16_32_and_64(ways):
    """Fixed hot runs just past each window edge, in a ~3,000-access
    stream, with every cold block seen both as a hit and as a miss."""
    hot = np.arange(ways - 1) * 2
    cold = (ways - 1 + np.arange(3)) * 2
    parts = []
    for k, r in enumerate([17, 33, 65, 129, 15, 31, 63, 500, 17, 33, 65] * 3):
        parts.append(np.resize(hot, r))
        parts.append(cold[[k % 3]])
    ids = np.concatenate(parts).astype(np.int64)  # 2,937 accesses
    _run_stream(2 * ways, ways, [("lookup", ids[:1700]),
                                 ("write", ids[1700:])])


@given(
    ways=st.sampled_from([1, 2, 4, 8]),
    sets=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_warm_cache_with_empty_and_real_ways(ways, sets, seed, n_ops):
    """Both models start from one state whose empty ways sit anywhere
    among the real ones: misses fill empty ways in way order.  With
    ``ways = 1`` some sets start empty and the others full."""
    rng = np.random.default_rng(seed)
    capacity = ways * sets
    tags = np.full((sets, ways), -1, dtype=np.int64)
    stamps = np.zeros((sets, ways), dtype=np.int64)
    real = rng.random((sets, ways)) < 0.5
    for s in range(sets):
        k = int(real[s].sum())
        tags[s, real[s]] = rng.choice(4 * ways, size=k, replace=False) \
            * sets + s
    stamps[real] = rng.permutation(int(real.sum())) + 1
    vec, ref = LRUCache(capacity, ways=ways), ScalarLRUCache(capacity,
                                                            ways=ways)
    for cache in (vec, ref):
        cache._tags[:] = tags
        cache._stamp[:] = stamps
        cache._clock = int(real.sum())
    for _ in range(n_ops):
        kind = ("lookup", "write")[int(rng.integers(2))]
        ids = rng.integers(0, 5 * capacity, size=int(rng.integers(0, 60)))
        ids = ids.astype(np.int64)
        np.testing.assert_array_equal(getattr(vec, kind)(ids),
                                      getattr(ref, kind)(ids))
        _assert_same_state(vec, ref)


@given(
    ways=st.sampled_from([1, 8]),
    sets=st.sampled_from([64, 512]),
    touched=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(2, 5),
)
@settings(max_examples=30, deadline=None)
def test_batches_touch_few_of_many_sets(ways, sets, touched, seed, n_ops):
    """Each batch touches a handful of sets; the rest keep their state
    (``ways = 1`` included: every access to another block evicts)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        chosen = rng.choice(sets, size=touched, replace=False)
        size = int(rng.integers(1, 80))
        ids = (rng.integers(0, 3 * ways, size=size) * sets
               + rng.choice(chosen, size=size))
        ops.append((("lookup", "write")[int(rng.integers(2))],
                    ids.astype(np.int64)))
    _run_stream(ways * sets, ways, ops)
