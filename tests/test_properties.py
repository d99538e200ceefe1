"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import counted_boruvka
from repro.core import Amst, AmstConfig, bitonic_sort_pairs
from repro.core.utils import segmented_prefix_minima_mask
from repro.graph import from_edges
from repro.memory import BankedParentCache, HashHDVCache
from repro.mst import (
    UnionFind,
    boruvka,
    certify_minimum_forest,
    filter_kruskal,
    kruskal,
    pointer_jump,
    prim,
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_n=24, max_m=60):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    u = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dup_w = draw(st.booleans())
    if dup_w:
        w = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        w = [float(x) for x in w]
    else:
        w = list(np.random.default_rng(draw(st.integers(0, 99)))
                 .permutation(m) + 1.0)
    return from_edges(n, np.array(u, int), np.array(v, int),
                      np.array(w, float))


class TestMstAgreement:
    @SLOW
    @given(random_graphs())
    def test_all_implementations_agree_on_weight(self, g):
        expected = kruskal(g)
        for algo in (prim, boruvka, filter_kruskal):
            assert algo(g).same_forest_weight(expected)
        for flt in (True, False):
            result, _ = counted_boruvka(g, filter_intra=flt)
            assert result.same_forest_weight(expected)

    @SLOW
    @given(random_graphs())
    def test_kruskal_certified_from_first_principles(self, g):
        # independent proof via the cycle property, no union-find involved
        certify_minimum_forest(g, kruskal(g).edge_ids)

    @SLOW
    @given(random_graphs(), st.sampled_from([1, 4]),
           st.booleans(), st.booleans())
    def test_amst_simulator_is_minimal(self, g, p, sew, siv):
        cfg = AmstConfig.full(p, cache_vertices=8).with_(
            sort_edges_by_weight=sew, skip_intra_vertices=siv)
        out = Amst(cfg).run(g)
        assert out.result.same_forest_weight(kruskal(g))


class TestUnionFind:
    @SLOW
    @given(st.integers(1, 30),
           st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                    max_size=50))
    def test_component_count_invariant(self, n, unions):
        dsu = UnionFind(n)
        for a, b in unions:
            dsu.union(a % n, b % n)
        labels = dsu.find_many(np.arange(n))
        assert np.unique(labels).size == dsu.num_components
        # every element's find agrees with its label
        for i in range(n):
            assert dsu.find(i) == labels[i]

    @SLOW
    @given(st.lists(st.integers(0, 19), min_size=1, max_size=20))
    def test_pointer_jump_fixpoint(self, raw):
        parent = np.array([min(p, i) for i, p in enumerate(raw)],
                          dtype=np.int64)  # acyclic: parent <= self
        out = pointer_jump(parent.copy())
        assert np.array_equal(out[out], out)  # fixed point reached


class TestSortingNetwork:
    @SLOW
    @given(st.integers(0, 5),
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=0, max_size=32))
    def test_bitonic_matches_lexsort(self, pad_pow, pairs):
        size = 1 << pad_pow
        pairs = pairs[:size] + [(99, 99)] * (size - len(pairs))
        addrs = np.array([p[0] for p in pairs])
        vals = np.array([p[1] for p in pairs])
        sa, sv = bitonic_sort_pairs(addrs, vals)
        order = np.lexsort((vals, addrs))
        assert np.array_equal(sa, addrs[order])
        assert np.array_equal(sv, vals[order])


class TestBankedCache:
    @SLOW
    @given(st.integers(1, 4).map(lambda k: 1 << k), st.integers(1, 64),
           st.lists(st.tuples(st.integers(0, 63), st.integers(0, 999)),
                    max_size=40))
    def test_matches_flat_array(self, ports, depth, writes):
        cache = BankedParentCache(depth, ports)
        flat = np.full(depth, -1, dtype=np.int64)
        for addr, val in writes:
            addr %= depth
            cache.write(addr % ports, np.array([addr]), np.array([val]))
            flat[addr] = val
        assert np.array_equal(cache.read(np.arange(depth)), flat)


class TestHashCache:
    @SLOW
    @given(st.integers(1, 6).map(lambda k: 1 << k),
           st.lists(st.tuples(st.sampled_from(["read", "write", "dead"]),
                              st.integers(0, 255)), max_size=60))
    def test_reads_never_return_stale_owner(self, capacity, ops):
        """After any op sequence, a hit implies the id is the slot owner."""
        cache = HashHDVCache(capacity, 256)
        owners = {s: s for s in range(min(capacity, 256))}
        for op, vid in ops:
            slot = vid % capacity
            if op == "read":
                hit = bool(cache.lookup(np.array([vid]))[0])
                assert hit == (owners.get(slot) == vid)
            elif op == "write":
                wrote = bool(cache.write(np.array([vid]))[0])
                if slot not in owners:
                    owners[slot] = vid
                    assert wrote
                else:
                    assert wrote == (owners[slot] == vid)
            else:
                if owners.get(vid % capacity) == vid:
                    del owners[vid % capacity]
                cache.mark_dead(np.array([vid]))


class TestPrefixMinima:
    @SLOW
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 99)),
                    max_size=60))
    def test_matches_sequential_filter(self, items):
        group = np.array([g for g, _ in items], dtype=np.int64)
        keys = np.array([k for _, k in items], dtype=np.int64)
        mask = segmented_prefix_minima_mask(keys, group)
        best = {}
        for i, (g, k) in enumerate(items):
            expect = g not in best or k < best[g]
            assert bool(mask[i]) == expect
            if expect:
                best[g] = k


@st.composite
def permutations(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    perm = np.arange(n)
    np.random.default_rng(draw(st.integers(0, 99))).shuffle(perm)
    return n, perm


class TestGraphTransforms:
    @SLOW
    @given(random_graphs(max_n=16), st.integers(0, 99))
    def test_permute_preserves_mst_weight(self, g, seed):
        perm = np.arange(g.num_vertices)
        np.random.default_rng(seed).shuffle(perm)
        assert np.isclose(
            kruskal(g).total_weight, kruskal(g.permute(perm)).total_weight
        )

    @SLOW
    @given(random_graphs(max_n=16), st.booleans())
    def test_sort_edges_preserves_edge_multiset(self, g, by_weight):
        s = g.sort_edges(by_weight=by_weight)
        assert set(g.iter_edges()) == set(s.iter_edges())

    @SLOW
    @given(random_graphs(max_n=16))
    def test_npz_round_trip_exact(self, g):
        import os
        import tempfile
        from repro.graph import load_npz, save_npz

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "g.npz")
            save_npz(g, path)
            assert load_npz(path) == g

    @SLOW
    @given(random_graphs(max_n=14), st.integers(1, 4))
    def test_scale_out_matches_kruskal(self, g, cards):
        from repro.core import AmstConfig
        from repro.fabric import run_fabric

        cfg = AmstConfig.full(4, cache_vertices=8)
        r = run_fabric(g, cards, cfg)
        assert r.result.same_forest_weight(kruskal(g))

    @SLOW
    @given(random_graphs(max_n=16))
    def test_connected_components_agree_with_forest(self, g):
        from repro.graph.connectivity import connected_components

        labels = connected_components(g)
        assert np.unique(labels).size == kruskal(g).num_components
