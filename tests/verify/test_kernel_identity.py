"""Each kernel of ``repro.kernels.numpy_impl`` against an independent
reference.

The NumPy kernels are the simulator's only implementation of its hot
loops, so each is pinned — values, dtypes, in-place mutations and
tie-breaks — against a scalar reference that shares no code with it:

* ``lru_replay`` against :class:`~repro.memory.ScalarLRUCache`;
* ``resolve_roots``, ``pointer_jump`` and ``find_many`` against the
  scalar :meth:`~repro.mst.UnionFind.find`;
* ``kruskal_union`` against a :meth:`~repro.mst.UnionFind.union` loop;
* ``fm_scan`` (both SEW branches, tie-heavy weights), ``cm_commit``
  (gather before scatter) and ``rape_mirrors`` against short
  brute-force loops written here.

Inputs come from the shared adversarial strategies
(``repro.verify.strategies``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import paper_example
from repro.kernels import numpy_impl
from repro.memory import ScalarLRUCache
from repro.mst import UnionFind, kruskal, pointer_jump
from repro.verify.strategies import forests, graphs

FAST = settings(max_examples=60, deadline=None)
RUNS = settings(max_examples=20, deadline=None)


def _identical(a, b):
    """Dtype-exact equality for scalars, arrays, and tuples thereof."""
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            _identical(x, y)
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    np.testing.assert_array_equal(a, b)


def _scalar_roots(parent, xs=None):
    """Roots by the scalar ``UnionFind.find`` on a copy of ``parent``."""
    uf = UnionFind(parent.size)
    uf.parent = parent.copy()
    xs = range(parent.size) if xs is None else xs
    return np.array([uf.find(int(x)) for x in xs], dtype=np.int64)


class TestUnionFindKernels:
    @given(parent=forests())
    @FAST
    def test_resolve_roots(self, parent):
        before = parent.copy()
        _identical(numpy_impl.resolve_roots(parent), _scalar_roots(parent))
        _identical(parent, before)  # the input is never modified

    @given(parent=forests())
    @FAST
    def test_pointer_jump_mutates_identically(self, parent):
        want = _scalar_roots(parent)
        got = numpy_impl.pointer_jump(parent)
        assert got is parent  # compressed in place
        _identical(parent, want)

    @given(parent=forests(), data=st.data())
    @FAST
    def test_find_many(self, parent, data):
        k = data.draw(st.integers(0, 8))
        xs = np.array(
            data.draw(st.lists(st.integers(0, parent.size - 1),
                               min_size=k, max_size=k)),
            dtype=np.int64,
        )
        before = parent.copy()
        _identical(numpy_impl.find_many(parent, xs),
                   _scalar_roots(parent, xs))
        _identical(parent, before)  # read-only batch


def _cm_commit_reference(parent, roots, root_final, leaf_ids):
    out = parent.copy()
    for r, f in zip(roots, root_final):
        out[r] = f
    hops = [out[out[leaf]] for leaf in leaf_ids]  # gather every leaf...
    for leaf, hop in zip(leaf_ids, hops):  # ...before any write lands
        out[leaf] = hop
    return out


class TestForestKernels:
    @given(g=graphs())
    @RUNS
    def test_kruskal_union(self, g):
        u, v, w = g.edge_endpoints()
        order = np.lexsort((np.arange(u.size), w))
        u, v, w = u[order], v[order], w[order]
        uf = UnionFind(g.num_vertices)
        want = np.zeros(u.size, dtype=bool)
        total = 0.0
        for e in range(u.size):
            if uf.union(int(u[e]), int(v[e])):
                want[e] = True
                total += float(w[e])
                if uf.num_components == 1:
                    break
        chosen, comps, got_total = numpy_impl.kruskal_union(
            g.num_vertices, u, v, w)
        _identical(chosen, want)
        assert comps == uf.num_components
        assert float(got_total) == total  # same order of float additions

    @given(parent=forests(), data=st.data())
    @FAST
    def test_cm_commit(self, parent, data):
        n = parent.size
        roots = np.flatnonzero(parent == np.arange(n)).astype(np.int64)
        leaf_ids = np.flatnonzero(parent != np.arange(n)).astype(np.int64)
        root_final = np.array(
            data.draw(st.lists(st.integers(0, n - 1),
                               min_size=roots.size, max_size=roots.size)),
            dtype=np.int64,
        )
        before = parent.copy()
        _identical(
            numpy_impl.cm_commit(parent, roots, root_final, leaf_ids),
            _cm_commit_reference(parent, roots, root_final, leaf_ids))
        _identical(parent, before)  # a fresh array is returned

    @given(data=st.data())
    @FAST
    def test_rape_mirrors(self, data):
        n = data.draw(st.integers(1, 24))
        me_eid = np.array(
            data.draw(st.lists(st.integers(-1, 6),
                               min_size=n, max_size=n)),
            dtype=np.int64,
        )
        k = data.draw(st.integers(0, n))
        idx = st.integers(0, n - 1)
        cand = np.array(data.draw(st.lists(idx, min_size=k, max_size=k)),
                        dtype=np.int64)
        tgt = np.array(data.draw(st.lists(idx, min_size=k, max_size=k)),
                       dtype=np.int64)
        want = np.array(
            [me_eid[t] == me_eid[c] and c < t for c, t in zip(cand, tgt)],
            dtype=bool)
        _identical(numpy_impl.rape_mirrors(me_eid, cand, tgt), want)


@st.composite
def _fm_inputs(draw):
    """Valid FM scan inputs: segments with unique edge ids."""
    nseg = draw(st.integers(1, 10))
    lens = np.array(
        draw(st.lists(st.integers(0, 6), min_size=nseg, max_size=nseg)),
        dtype=np.int64,
    )
    offsets = np.zeros(nseg + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    m = int(offsets[-1])
    seg_id = np.repeat(np.arange(nseg, dtype=np.int64), lens)
    external = np.array(
        draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    w = np.array(
        draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5]),
                      min_size=m, max_size=m)),
        dtype=np.float64,
    )
    eid = np.random.default_rng(
        draw(st.integers(0, 2**31 - 1))).permutation(m).astype(np.int64)
    return external, offsets, seg_id, w, eid


def _fm_scan_reference(external, offsets, w, eid, sew):
    first, found, exam_end, cand = [], [], [], []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        ext = [j for j in range(lo, hi) if external[j]]
        f = ext[0] if ext else hi
        first.append(f)
        found.append(bool(ext))
        if sew:  # stop after the first external edge, which is picked
            exam_end.append(f + 1 if ext else hi)
            cand.append(f if ext else -1)
        else:  # scan the whole segment for the min (weight, eid) edge
            exam_end.append(hi)
            cand.append(min(ext, key=lambda j: (w[j], eid[j], j))
                        if ext else -1)
    return (np.array(first, dtype=np.int64), np.array(found, dtype=bool),
            np.array(exam_end, dtype=np.int64),
            np.array(cand, dtype=np.int64))


class TestScanKernels:
    @given(inputs=_fm_inputs(), sew=st.booleans())
    @FAST
    def test_fm_scan(self, inputs, sew):
        external, offsets, seg_id, w, eid = inputs
        want = _fm_scan_reference(external, offsets, w, eid, sew)
        if sew:  # SEW mode never reads weights/eids (pre-sorted rows)
            w = np.empty(0, dtype=np.float64)
            eid = np.empty(0, dtype=np.int64)
        _identical(
            numpy_impl.fm_scan(external, offsets, seg_id, w, eid, sew),
            want)

    @given(data=st.data())
    @FAST
    def test_lru_replay(self, data):
        # two batches, so the second replays over a warm cache state
        nsets = data.draw(st.sampled_from([1, 2, 4]))
        ways = data.draw(st.sampled_from([1, 2, 4]))
        ref = ScalarLRUCache(nsets * ways, ways=ways)
        tags = np.full((nsets, ways), -1, dtype=np.int64)
        stamps = np.zeros((nsets, ways), dtype=np.int64)
        clock = 0
        for _ in range(2):
            ids = np.array(
                data.draw(st.lists(st.integers(0, 5 * nsets * ways),
                                   max_size=40)),
                dtype=np.int64,
            )
            evicted = ref.stats.evictions
            want = ref.lookup(ids)
            hits, evictions, clock = numpy_impl.lru_replay(
                ids, tags, stamps, clock, nsets, ways)
            _identical(hits, want)
            assert evictions == ref.stats.evictions - evicted
            assert clock == ref._clock
            _identical(tags, ref._tags)  # cache state mutated identically
            _identical(stamps, ref._stamp)

    @given(data=st.data())
    @FAST
    def test_lru_replay_matches_scalar_model(self, data):
        ways = data.draw(st.sampled_from([2, 4]))
        capacity = data.draw(st.sampled_from([8, 16]))
        k = data.draw(st.integers(0, 40))
        ids = np.array(
            data.draw(st.lists(st.integers(0, 3 * capacity),
                               min_size=k, max_size=k)),
            dtype=np.int64,
        )
        ref = ScalarLRUCache(capacity, ways=ways)
        want = ref.lookup(ids)
        nsets = capacity // ways
        tags = np.full((nsets, ways), -1, dtype=np.int64)
        stamps = np.zeros((nsets, ways), dtype=np.int64)
        hits, evictions, _ = numpy_impl.lru_replay(
            ids, tags, stamps, 0, nsets, ways)
        np.testing.assert_array_equal(hits, want)
        assert int(evictions) == ref.stats.evictions


class TestOneCopyOfEachLoop:
    def test_mst_helpers_call_the_kernels(self, monkeypatch):
        calls = []
        for name in ("kruskal_union", "pointer_jump", "find_many"):
            real = getattr(numpy_impl, name)

            def spy(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(numpy_impl, name, spy)
        UnionFind(4).find_many(np.array([3, 1], dtype=np.int64))
        pointer_jump(np.array([0, 0, 1, 2], dtype=np.int64))
        kruskal(paper_example())
        assert calls == ["find_many", "pointer_jump", "kruskal_union"]
