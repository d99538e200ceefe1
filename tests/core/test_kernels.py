"""Tests of the kernel dispatch plumbing (``repro.kernels``).

Covers the per-run :class:`~repro.kernels.KernelDispatch` façade
(counters, timers, pickling, module lookup), the absence of any
kernel-tier selection on the config/CLI surface, and the
``--profile-host`` rendering.  Each kernel's *algorithm* is checked
against an independent reference in
``tests/verify/test_kernel_identity.py``.
"""

import pickle

import numpy as np
import pytest

from repro.core import Amst, AmstConfig
from repro.core.timing import HostTimers, format_host_profile
from repro.graph import paper_example
from repro.kernels import KERNEL_NAMES, KernelDispatch, numpy_impl
from repro.memory import LRUCache, ScalarLRUCache


class TestKernelSets:
    def test_all_kernels_present(self):
        # pinned: perfbench/tracing.py wraps these names on numpy_impl
        assert set(KERNEL_NAMES) == {
            "resolve_roots", "pointer_jump", "find_many", "kruskal_union",
            "lru_replay", "fm_scan", "rape_mirrors", "cm_commit"}
        d = KernelDispatch()
        for name in KERNEL_NAMES:
            assert callable(getattr(numpy_impl, name))
            assert callable(getattr(d, name))


class TestKernelDispatch:
    def test_counts_dispatches(self):
        d = KernelDispatch()
        parent = np.array([0, 0, 1], dtype=np.int64)
        d.resolve_roots(parent)
        d.resolve_roots(parent)
        d.find_many(parent, np.array([2], dtype=np.int64))
        assert d.counters == {"resolve_roots": 2, "find_many": 1}

    def test_times_under_kernel_namespace(self):
        timers = HostTimers()
        d = KernelDispatch(timers)
        d.resolve_roots(np.array([0, 0, 1], dtype=np.int64))
        assert timers.calls.get("kernel.resolve_roots") == 1
        assert timers.seconds["kernel.resolve_roots"] >= 0.0

    def test_unknown_attribute(self):
        d = KernelDispatch()
        with pytest.raises(AttributeError):
            d.not_a_kernel
        with pytest.raises(AttributeError):
            d._private_probe

    def test_pickle_roundtrip(self):
        d = KernelDispatch(HostTimers())
        d.resolve_roots(np.array([0, 0], dtype=np.int64))
        clone = pickle.loads(pickle.dumps(d))
        assert clone.counters == {"resolve_roots": 1}
        # the clone keeps dispatching (and counting) after the roundtrip
        clone.pointer_jump(np.array([0, 0], dtype=np.int64))
        assert clone.counters["pointer_jump"] == 1

    def test_bind_timers_rebuilds_wrappers(self):
        d = KernelDispatch()
        d.resolve_roots(np.array([0], dtype=np.int64))
        timers = HostTimers()
        d.bind_timers(timers)
        d.resolve_roots(np.array([0], dtype=np.int64))
        assert timers.calls.get("kernel.resolve_roots") == 1
        assert d.counters["resolve_roots"] == 2

    def test_calls_the_module_binding(self, monkeypatch):
        # the function is looked up on numpy_impl at first use, so a
        # wrapper installed on the module before a run is what runs
        seen = []
        real = numpy_impl.rape_mirrors

        def spy(*args):
            seen.append(len(args))
            return real(*args)

        monkeypatch.setattr(numpy_impl, "rape_mirrors", spy)
        d = KernelDispatch()
        ids = np.array([0], dtype=np.int64)
        d.rape_mirrors(np.array([3], dtype=np.int64), ids, ids)
        assert seen == [3]
        assert d.counters == {"rape_mirrors": 1}


class TestConfigSurface:
    def test_invalid_backend_rejected(self):
        # there is one kernel tier: no config field selects another
        with pytest.raises(TypeError):
            AmstConfig(backend="numba")

    def test_run_override(self):
        # ...and no per-run override either
        with pytest.raises(TypeError):
            Amst(AmstConfig.full(4, cache_vertices=16)).run(
                paper_example(), backend="numpy")

    def test_cli_backend_flag(self):
        from repro.cli import build_parser

        for command in ("run", "verify", "update", "scaleout"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "numpy"])


class TestRunIntegration:
    def test_dispatch_counters_flow(self):
        out = Amst(AmstConfig.full(4, cache_vertices=16)).run(
            paper_example())
        kernels = out.state.kernels
        assert kernels.counters.get("resolve_roots", 0) > 0
        assert kernels.counters.get("fm_scan", 0) > 0
        assert kernels.counters.get("cm_commit", 0) > 0

    def test_host_profile_rows(self):
        out = Amst(AmstConfig.full(4, cache_vertices=16)).run(
            paper_example())
        timing = out.report.extra["host_timing"]
        assert any(name.startswith("kernel.") for name in timing)
        text = format_host_profile(timing)
        assert "per kernel" in text
        assert "kernel.fm_scan" in text

    def test_profile_backend_line_optional(self):
        text = format_host_profile(HostTimers())
        assert "backend" not in text
        assert "(no samples recorded)" in text
        out = Amst(AmstConfig.full(4, cache_vertices=16)).run(
            paper_example())
        assert "backend" not in format_host_profile(
            out.report.extra["host_timing"])


class TestLRUCacheWiring:
    def test_standalone_cache_builds_own_kernels(self):
        cache = LRUCache(capacity=16, ways=4)  # no dispatcher injected
        ids = np.array([1, 2, 3, 1, 2, 3, 17, 1], dtype=np.int64)
        hits = cache.lookup(ids)
        assert hits.dtype == np.bool_
        assert isinstance(cache._kernels, KernelDispatch)
        assert cache._kernels.counters == {"lru_replay": 1}

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        ids = rng.integers(0, 64, 300)
        vec, ref = LRUCache(32, ways=4), ScalarLRUCache(32, ways=4)
        np.testing.assert_array_equal(
            vec.lookup(ids), ref.lookup(ids))
        assert vec.stats.evictions == ref.stats.evictions

    def test_injected_dispatcher_is_used(self):
        d = KernelDispatch()
        cache = LRUCache(capacity=8, ways=2, kernels=d)
        cache.lookup(np.array([1, 2, 3], dtype=np.int64))
        assert d.counters.get("lru_replay", 0) == 1
