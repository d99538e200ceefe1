"""Unit tests for the CSR graph container."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, from_edges, paper_example, path_graph
from repro.graph import csr as csr_module
from repro.graph.csr import stable_argsort, weight_eid_order
from repro.verify.strategies import graphs

PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: weights where an argsort alone is ambiguous or NaN-ordered
SPECIAL_WEIGHTS = (-0.0, 0.0, 1.0, 1.5, np.nan, np.inf, -np.inf)

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)
#: key spans at the 8- and 16-bit bounds (each +-1) and wide ones, up
#: to the whole int64 / uint64 range, which overflow the packed key
SPANS = (0, 1, 2**8 - 1, 2**8, 2**8 + 1, 2**16 - 1, 2**16, 2**16 + 1,
         2**40, 2**57, 2**62, 2**63 - 1, 2**64 - 1)


@st.composite
def int_keys(draw):
    """Integer keys of any width and sign, spanning a drawn range exactly,
    mostly repeated values (so stability shows)."""
    span = draw(st.sampled_from(SPANS))
    dtype = draw(st.sampled_from([
        d for d in INT_DTYPES if np.iinfo(d).max >= span + np.iinfo(d).min]))
    info = np.iinfo(dtype)
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    pool = [0, span] + draw(st.lists(st.integers(0, span), max_size=6))
    offsets = draw(st.lists(st.sampled_from(pool), max_size=300))
    return np.array([lo + x for x in offsets], dtype=dtype)


def _simple():
    return from_edges(
        4,
        np.array([0, 1, 2, 0]),
        np.array([1, 2, 3, 3]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


class TestConstruction:
    def test_basic_counts(self):
        g = _simple()
        assert g.num_vertices == 4
        assert g.num_edges == 4
        assert g.num_half_edges == 8

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="indptr\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0]), np.array([1.0]),
                     np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]),
                     np.array([1.0, 2.0]), np.array([0, 1]))

    def test_indptr_must_match_edge_count(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            CSRGraph(np.array([0, 3]), np.array([0]), np.array([1.0]),
                     np.array([0]))

    def test_dst_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(np.array([0, 1]), np.array([5]), np.array([1.0]),
                     np.array([0]))

    def test_mismatched_array_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRGraph(np.array([0, 1]), np.array([0]),
                     np.array([1.0, 2.0]), np.array([0]))

    def test_arrays_are_immutable(self):
        g = _simple()
        with pytest.raises(ValueError):
            g.dst[0] = 3
        with pytest.raises(ValueError):
            g.weight[0] = 9.0

    def test_empty_graph(self):
        g = CSRGraph(np.zeros(1, np.int64), np.empty(0, np.int64),
                     np.empty(0), np.empty(0, np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0


class TestAccessors:
    def test_degrees(self):
        g = _simple()
        assert g.degrees().tolist() == [2, 2, 2, 2]

    def test_src_expanded_matches_indptr(self):
        g = paper_example()
        src = g.src_expanded()
        for v in range(g.num_vertices):
            s, e = g.indptr[v], g.indptr[v + 1]
            assert (src[s:e] == v).all()

    def test_src_expanded_cached(self):
        g = _simple()
        assert g.src_expanded() is g.src_expanded()

    def test_neighbors(self):
        g = _simple()
        assert set(g.neighbors(0).tolist()) == {1, 3}

    def test_edges_of_returns_aligned_slices(self):
        g = _simple()
        dst, w, eid = g.edges_of(1)
        assert dst.shape == w.shape == eid.shape

    def test_iter_edges_yields_each_edge_once(self):
        g = _simple()
        edges = list(g.iter_edges())
        assert len(edges) == g.num_edges
        assert len({e[3] for e in edges}) == g.num_edges
        for u, v, _, _ in edges:
            assert u <= v

    def test_edge_endpoints_canonical(self):
        g = paper_example()
        u, v, w = g.edge_endpoints()
        assert (u <= v).all()
        assert u.shape == (g.num_edges,)
        # endpoints must agree with iter_edges
        for a, b, ww, e in g.iter_edges():
            assert u[e] == a and v[e] == b and w[e] == ww


class TestTransforms:
    def test_permute_preserves_edge_multiset(self):
        g = paper_example()
        perm = np.array([3, 2, 5, 0, 4, 1])
        h = g.permute(perm)
        gu, gv, gw = g.edge_endpoints()
        hu, hv, hw = h.edge_endpoints()
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b]), c)
                  for a, b, c in zip(gu, gv, gw)}
        got = set(zip(hu.tolist(), hv.tolist(), hw.tolist()))
        assert mapped == got

    def test_permute_rejects_non_permutation(self):
        g = _simple()
        with pytest.raises(ValueError, match="not a permutation"):
            g.permute(np.array([0, 0, 1, 2]))

    def test_permute_rejects_wrong_length(self):
        g = _simple()
        with pytest.raises(ValueError, match="one entry per vertex"):
            g.permute(np.array([0, 1]))

    def test_sort_edges_by_weight(self):
        g = paper_example().sort_edges(by_weight=True)
        for v in range(g.num_vertices):
            _, w, _ = g.edges_of(v)
            assert (np.diff(w) >= 0).all()

    def test_sort_edges_by_weight_breaks_ties_by_eid(self):
        g = from_edges(3, np.array([0, 0]), np.array([1, 2]),
                       np.array([5.0, 5.0]))
        s = g.sort_edges(by_weight=True)
        _, _, eid = s.edges_of(0)
        assert eid.tolist() == sorted(eid.tolist())

    def test_sort_edges_by_dst(self):
        g = paper_example().sort_edges(by_weight=False)
        for v in range(g.num_vertices):
            dst, _, _ = g.edges_of(v)
            assert (np.diff(dst) >= 0).all()

    def test_sort_preserves_graph(self):
        g = paper_example()
        s = g.sort_edges(by_weight=True)
        assert set(g.iter_edges()) == set(s.iter_edges())

    @PROPERTY
    @given(graphs(), st.booleans())
    def test_sort_edges_by_weight_matches_lexsort(self, g, special):
        # the 3-key half-edge lexsort sort_edges(by_weight=True) replaced
        if special and g.num_edges:
            pool = np.array(SPECIAL_WEIGHTS)
            g = g.reweight(pool[np.arange(g.num_edges) % pool.size])
        ref = np.lexsort((g.eid, g.weight, g.src_expanded()))
        s = g.sort_edges(by_weight=True)
        assert s.indptr.tobytes() == g.indptr.tobytes()
        assert s.dst.tobytes() == g.dst[ref].tobytes()
        assert s.weight.tobytes() == g.weight[ref].tobytes()
        assert s.eid.tobytes() == g.eid[ref].tobytes()

    @pytest.mark.parametrize("packed", [True, False],
                             ids=["packed", "argsort-fallback"])
    @pytest.mark.parametrize("relabel", [False, True],
                             ids=["same-ids", "perm"])
    def test_sort_edges_by_weight_loops_and_parallel_edges(
            self, monkeypatch, packed, relabel):
        # self-loops (two identical halves share a key), parallel edges
        # of equal and unequal weight, and every special weight; without
        # the packed key (past int64) np.argsort sorts the same key
        if not packed:
            monkeypatch.setattr(csr_module, "_packed_argsort",
                                lambda keys: None)
        pool = np.array(SPECIAL_WEIGHTS)
        u = np.array([0, 1, 1, 2, 2, 2, 3, 0, 4, 4, 1, 3, 0, 2])
        v = np.array([1, 1, 2, 0, 0, 2, 0, 1, 4, 3, 2, 3, 0, 1])
        g = from_edges(5, u, v, pool[np.arange(u.size) % pool.size],
                       dedup=False)
        perm = np.array([3, 0, 4, 1, 2]) if relabel else None
        s = g.sort_edges(by_weight=True, perm=perm)
        h = g.permute(perm) if relabel else g
        ref = np.lexsort((h.eid, h.weight, h.src_expanded()))
        assert s.indptr.tobytes() == h.indptr.tobytes()
        assert s.dst.tobytes() == h.dst[ref].tobytes()
        assert s.weight.tobytes() == h.weight[ref].tobytes()
        assert s.eid.tobytes() == h.eid[ref].tobytes()

    def test_reweight(self):
        g = _simple()
        new_w = np.array([10.0, 20.0, 30.0, 40.0])
        h = g.reweight(new_w)
        _, _, w = h.edge_endpoints()
        assert np.array_equal(w, new_w)

    def test_reweight_rejects_wrong_length(self):
        g = _simple()
        with pytest.raises(ValueError, match="one entry per undirected"):
            g.reweight(np.array([1.0]))


class TestWeightEidOrder:
    @PROPERTY
    @given(st.lists(st.tuples(
               st.one_of(st.sampled_from(SPECIAL_WEIGHTS), st.floats()),
               st.integers(0, 4)), max_size=40),
           st.lists(st.integers(0, 39), max_size=20), st.randoms())
    def test_equals_lexsort(self, pairs, mirrors, rnd):
        # duplicate weights, -0.0 beside 0.0, NaN, +-inf; each mirror
        # repeats a (w, eid) pair, as both endpoints of an edge do
        if pairs:
            pairs = pairs + [pairs[i % len(pairs)] for i in mirrors]
        rnd.shuffle(pairs)
        w = np.array([p[0] for p in pairs], dtype=np.float64)
        eid = np.array([p[1] for p in pairs], dtype=np.int64)
        got = weight_eid_order(w, eid)
        assert got.tobytes() == np.lexsort((eid, w)).tobytes()

    def test_mirrored_pairs_keep_input_order(self):
        w = np.array([2.0, 1.0, 2.0, 1.0])
        eid = np.array([7, 3, 7, 3])
        assert weight_eid_order(w, eid).tolist() == [1, 3, 0, 2]

    def test_empty(self):
        got = weight_eid_order(np.empty(0), np.empty(0, np.int64))
        assert got.size == 0


class TestStableArgsort:
    @PROPERTY
    @given(int_keys())
    def test_equals_numpy_stable_argsort(self, keys):
        got = stable_argsort(keys)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keys", [
        np.empty(0, np.int64), np.array([7]), np.full(50, -3),
        np.array([2**63 - 1, -2**63, 0, -2**63, 2**63 - 1]),
        np.array([2**64 - 1, 0, 2**63, 2**64 - 1], dtype=np.uint64),
        np.array([2.5, 1.0, 2.5]),  # not integers: NumPy's own sort
        np.array([[3, 1, 2], [0, 5, 4]]),  # 2-D: sorted along each row
    ])
    def test_edge_cases(self, keys):
        want = np.argsort(keys, kind="stable")
        assert stable_argsort(keys).tobytes() == want.tobytes()

    def test_index_packed_across_chunks(self):
        # longer than three index chunks, ties across the whole array
        keys = np.random.default_rng(0).integers(-2**30, 2**30,
                                                 3 * 2**16 + 5)
        keys[::7] = keys[3]
        assert np.array_equal(stable_argsort(keys),
                              np.argsort(keys, kind="stable"))

    def test_sorted_keys_return_the_identity(self):
        keys = np.repeat(np.arange(-5, 5), 3)
        assert stable_argsort(keys).tolist() == list(range(keys.size))


class TestPickle:
    def test_round_trip_is_read_only_without_cache(self):
        g = paper_example()
        g.src_expanded()
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert h._src_cache is None
        for a in (h.indptr, h.dst, h.weight, h.eid):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            h.dst[0] = 5

    def test_src_cache_is_not_pickled(self):
        g, cached = paper_example(), paper_example()
        cached.src_expanded()
        assert pickle.dumps(cached) == pickle.dumps(g)

    def test_loads_the_default_slot_state(self):
        # disk cache entries written before the graph had its own
        # pickle state hold the default ``(None, {slot: value})``
        g = paper_example()
        slots = {name: getattr(g, name)
                 for name in ("indptr", "dst", "weight", "eid")}
        slots["_src_cache"] = g.src_expanded()
        state = pickle.loads(pickle.dumps((None, slots)))
        h = CSRGraph.__new__(CSRGraph)
        h.__setstate__(state)
        assert h == g
        assert h._src_cache is None
        assert not h.eid.flags.writeable


class TestDunder:
    def test_equality(self):
        assert _simple() == _simple()
        assert paper_example() == paper_example()

    def test_inequality(self):
        assert _simple() != paper_example()

    def test_equality_with_other_type(self):
        assert _simple() != "not a graph"

    def test_hash_consistent(self):
        assert hash(_simple()) == hash(_simple())

    def test_path_graph_repr(self):
        assert "n=5" in repr(path_graph(5))
