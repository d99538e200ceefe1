"""Failure-injection tests.

Invariants a hardware team relies on:

1. **Cache behaviour cannot affect correctness** — the caches are a
   performance structure; even a cache that *lies about hits* must not
   change the forest (only the event counts).  A `LyingCache` wrapper
   injects random hit/miss corruption and the forest is re-validated.
2. **The validators catch seeded functional bugs** — corrupting the
   intra-edge flags (marking a *external* edge intra) or the SEW scan
   cursor makes the simulator produce a non-minimal forest, and
   `validate_mst` / `certify_minimum_forest` must both detect it.
3. **`--self-check` catches corrupted state mid-run** — flipping a
   parent pointer, undercounting a cache hit or moving a scan cursor
   during the run raises `SelfCheckError` at the next iteration
   boundary when the mode is on, while the same corrupted run completes
   silently with it off (docs/TESTING.md).
4. **A Parent cycle raises instead of hanging** — the Compressing
   Module's root chase stops once it has taken more steps than there
   are roots, with or without the mode.
"""

import signal

import numpy as np
import pytest

from repro.core import Amst, AmstConfig, SelfCheckError
from repro.core.state import SimState
from repro.graph import from_edges, preprocess, rmat
from repro.mst import certify_minimum_forest, kruskal, validate_mst


class LyingCache:
    """Wraps a cache and randomly corrupts its hit/miss answers."""

    def __init__(self, inner, rng):
        self._inner = inner
        self._rng = rng
        self.stats = inner.stats

    def lookup(self, ids):
        hits = np.asarray(self._inner.lookup(ids)).copy()
        flip = self._rng.random(hits.size) < 0.3
        hits[flip] = ~hits[flip]
        return hits

    def write(self, ids):
        wrote = np.asarray(self._inner.write(ids)).copy()
        flip = self._rng.random(wrote.size) < 0.3
        wrote[flip] = ~wrote[flip]
        return wrote

    def mark_dead(self, ids):
        self._inner.mark_dead(ids)

    def contains(self, ids):
        return self._inner.contains(ids)

    def utilization(self):
        return self._inner.utilization()


class TestCacheFaultTolerance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lying_caches_cannot_corrupt_the_forest(self, seed):
        g = rmat(8, 6, rng=seed)
        cfg = AmstConfig.full(8, cache_vertices=64)
        amst = Amst(cfg)

        out_honest = amst.run(g)

        # monkey-patch the state factory to wrap both caches
        rng = np.random.default_rng(seed)
        original = SimState.initial.__func__

        def lying_initial(cls, graph, config):
            st = original(cls, graph, config)
            st.parent_cache = LyingCache(st.parent_cache, rng)
            st.minedge_cache = LyingCache(st.minedge_cache, rng)
            return st

        try:
            SimState.initial = classmethod(lying_initial)
            out_lied = amst.run(g)
        finally:
            SimState.initial = classmethod(original)

        # identical forest, despite corrupted cache responses
        assert np.array_equal(
            out_lied.result.edge_ids, out_honest.result.edge_ids
        )
        validate_mst(g, out_lied.result, reference=kruskal(g))


def _run_sabotaged(g, cfg, sabotage):
    """Run ``g`` with ``sabotage(state)`` applied to the initial state."""
    original = SimState.initial.__func__

    def sabotaged_initial(cls, graph, config):
        st = original(cls, graph, config)
        sabotage(st)
        return st

    pre = preprocess(g, reorder="sort",
                     sort_edges_by_weight=cfg.sort_edges_by_weight)
    try:
        SimState.initial = classmethod(sabotaged_initial)
        return Amst(cfg).run(g, preprocessed=pre)
    finally:
        SimState.initial = classmethod(original)


def _assert_validators_flag(g, result):
    ref = kruskal(g)
    # the sabotage must actually change the outcome...
    assert result.total_weight > ref.total_weight
    # ...and both validators must flag it
    with pytest.raises(AssertionError):
        validate_mst(g, result, reference=ref)
    with pytest.raises(AssertionError):
        certify_minimum_forest(g, result.edge_ids)


class TestValidatorsCatchSeededBugs:
    def test_corrupted_ie_flags_are_detected(self):
        """Marking live external edges as intra breaks minimality, and
        every validator layer must notice.  Without SEW the scan reads
        every flag of a segment."""
        g = rmat(8, 6, rng=3)
        cfg = AmstConfig.full(4, cache_vertices=64).with_(
            sort_edges_by_weight=False)

        def sabotage(st):
            # pre-mark the globally lightest edges as "intra"
            lightest = np.argsort(st.graph.weight)[
                : st.graph.num_half_edges // 4]
            st.ie[lightest] = True

        _assert_validators_flag(g, _run_sabotaged(g, cfg, sabotage).result)

    def test_corrupted_scan_cursor_is_detected(self):
        """With SEW and SIE the scan starts at each vertex's cursor, so
        moving the cursor past the globally lightest edge (first in both
        endpoints' segments) hides it from the whole run."""
        g = rmat(8, 6, rng=3)
        cfg = AmstConfig.full(4, cache_vertices=64)

        def sabotage(st):
            rg = st.graph
            k = int(np.argmin(rg.weight))
            # both half-edges: hiding one side only makes its mate's
            # component hook through a different edge, a Parent cycle
            halves = np.flatnonzero(rg.eid == rg.eid[k])
            for h in halves:
                v = int(rg.src_expanded()[h])
                assert h == rg.indptr[v]  # first in its SEW segment
                st.scan_from[v] = h + 1
            st.ie[halves] = True

        _assert_validators_flag(g, _run_sabotaged(g, cfg, sabotage).result)

    def test_weight_tampering_detected(self):
        g = rmat(7, 5, rng=4)
        good = kruskal(g)
        from repro.mst import MSTResult

        tampered = MSTResult(good.edge_ids, good.total_weight * 0.5,
                             good.num_components)
        with pytest.raises(AssertionError, match="claimed weight"):
            validate_mst(g, tampered)


class UndercountingCache:
    """Wraps a cache and silently drops one recorded hit mid-run.

    Models a bookkeeping bug, not a functional one: the lookup answers
    stay correct, only `stats.hits` is decremented once — exactly the
    fault the cache conservation law (hits + misses == accesses) exists
    to catch.
    """

    def __init__(self, inner):
        self._inner = inner
        self._corrupted = False

    def lookup(self, ids):
        hits = self._inner.lookup(ids)
        if not self._corrupted and self._inner.stats.hits > 0:
            self._inner.stats.hits -= 1
            self._corrupted = True
        return hits

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _run_with_corruption(corrupt_initial, *, self_check, seed=5):
    """Run rmat(8,6) with a sabotaged `SimState.initial`."""
    g = rmat(8, 6, rng=seed)
    cfg = AmstConfig.full(4, cache_vertices=64).with_(
        self_check=self_check)
    original = SimState.initial.__func__
    try:
        SimState.initial = classmethod(corrupt_initial(original))
        return Amst(cfg).run(g)
    finally:
        SimState.initial = classmethod(original)


class TestSelfCheckCatchesCorruptedState:
    """Satellite S3: the opt-in mode turns silent corruption into errors."""

    @staticmethod
    def _undercounting(original):
        def initial(cls, graph, config):
            st = original(cls, graph, config)
            st.parent_cache = UndercountingCache(st.parent_cache)
            return st
        return initial

    @staticmethod
    def _parent_flipping(original):
        def initial(cls, graph, config):
            st = original(cls, graph, config)
            inner_reset = st.reset_minedge
            state = {"done": False}

            def corrupting_reset():
                inner_reset()
                # after the first iteration committed, silently splice
                # one root under another — a plausible CM write-path bug
                if not state["done"] and st.roots.size >= 2:
                    state["done"] = True
                    st.parent[int(st.roots[0])] = int(st.roots[1])
            st.reset_minedge = corrupting_reset
            return st
        return initial

    @staticmethod
    def _cursor_moving(original):
        def initial(cls, graph, config):
            st = original(cls, graph, config)
            inner_reset = st.reset_minedge
            state = {"done": False}

            def corrupting_reset():
                inner_reset()
                # after the first iteration, step one vertex's SEW scan
                # cursor past an edge it never flagged
                if not state["done"]:
                    open_ = np.flatnonzero(
                        st.scan_from < st.graph.indptr[1:])
                    if open_.size:
                        state["done"] = True
                        st.scan_from[open_[0]] += 1
            st.reset_minedge = corrupting_reset
            return st
        return initial

    def test_undercounted_hit_raises_with_self_check(self):
        with pytest.raises(SelfCheckError, match="hits"):
            _run_with_corruption(self._undercounting, self_check=True)

    def test_undercounted_hit_is_silent_without_self_check(self):
        out = _run_with_corruption(self._undercounting, self_check=False)
        # the *forest* is still correct — only the books are cooked,
        # which is precisely why the run completes without the mode
        validate_mst(rmat(8, 6, rng=5), out.result,
                     reference=kruskal(rmat(8, 6, rng=5)))

    def test_flipped_parent_pointer_raises_with_self_check(self):
        with pytest.raises(SelfCheckError, match="[Rr]oot"):
            _run_with_corruption(self._parent_flipping, self_check=True)

    def test_moved_scan_cursor_raises_with_self_check(self):
        with pytest.raises(SelfCheckError, match="scan cursor"):
            _run_with_corruption(self._cursor_moving, self_check=True)

    def test_flipped_parent_pointer_is_silent_without_self_check(self):
        # the corrupted run terminates (the splice is a spurious union,
        # not a cycle) — without self-check nothing complains in-flight
        out = _run_with_corruption(self._parent_flipping, self_check=False)
        assert out.result.iterations >= 1


class TestParentCycle:
    """A Parent cycle stops the Compressing Module's root chase.

    Hiding an edge from one endpoint only (its half flagged intra, its
    mate not) lets two components pick different edges to each other:
    the RAPE mirror test compares edge ids, so both hook and their
    roots point at each other.  The chase must raise, not spin.
    """

    @staticmethod
    def _hide_one_half(original):
        def initial(cls, graph, config):
            st = original(cls, graph, config)
            # vertex 0's half of its lightest edge, not the mate's
            lo, hi = graph.indptr[0], graph.indptr[1]
            st.ie[lo + int(np.argmin(graph.weight[lo:hi]))] = True
            return st
        return initial

    @pytest.mark.parametrize("self_check", [False, True],
                             ids=["plain", "self-check"])
    def test_cycle_raises_instead_of_hanging(self, self_check):
        # two parallel edges: vertex 0 sees only the heavier one
        g = from_edges(2, np.array([0, 0]), np.array([1, 1]),
                       np.array([1.0, 2.0]), dedup=False)
        cfg = AmstConfig.full(4, cache_vertices=16).with_(
            sort_edges_by_weight=False, self_check=self_check)

        def timeout(signum, frame):
            raise TimeoutError("the Compressing Module's root chase spun")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        original = SimState.initial.__func__
        try:
            SimState.initial = classmethod(self._hide_one_half(original))
            with pytest.raises(SelfCheckError,
                               match=r"Parent cycle 0 -> 1 -> 0"):
                Amst(cfg).run(g)
        finally:
            SimState.initial = classmethod(original)
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
