"""Tests of the kernel call plumbing (``repro.kernels``).

Covers the ``kernel.<name>`` timer sections the simulator wraps around
each kernel call (counts and times in ``report.extra["host_timing"]``,
the module-attribute binding), the absence of any kernel-tier selection
on the config/CLI surface, and the ``--profile-host`` rendering.  Each
kernel's *algorithm* is checked against an independent reference in
``tests/verify/test_kernel_identity.py``.
"""

import pickle

import numpy as np
import pytest

from repro.core import Amst, AmstConfig
from repro.core.timing import HostTimers, format_host_profile
from repro.graph import paper_example
from repro.kernels import KERNEL_NAMES, numpy_impl
from repro.memory import LRUCache, ScalarLRUCache
from repro.obs import Telemetry

CFG = AmstConfig.full(4, cache_vertices=16)


def _kernel_calls(out) -> dict[str, int]:
    return {
        name[len("kernel."):]: row["calls"]
        for name, row in out.report.extra["host_timing"].items()
        if name.startswith("kernel.")
    }


class TestKernelSets:
    def test_all_kernels_present(self):
        # pinned: perfbench/tracing.py wraps these names on numpy_impl
        assert set(KERNEL_NAMES) == {
            "resolve_roots", "pointer_jump", "find_many", "kruskal_union",
            "lru_replay", "fm_scan", "rape_mirrors", "cm_commit"}
        for name in KERNEL_NAMES:
            assert callable(getattr(numpy_impl, name))


class TestKernelDispatch:
    def test_counts_dispatches(self):
        # telemetry reads the kernel.dispatch.* counts and kernel.time.*
        # gauges off the kernel.<name> host-timing rows
        tel = Telemetry()
        out = Amst(CFG).run(paper_example(), telemetry=tel)
        tel.record_output(out)
        flat = tel.metrics.flat()
        timing = out.report.extra["host_timing"]
        for name, calls in _kernel_calls(out).items():
            assert flat[f"kernel.dispatch.{name}"] == calls
            assert (flat[f"kernel.time.{name}.seconds"]
                    == timing[f"kernel.{name}"]["seconds"])

    def test_times_under_kernel_namespace(self):
        timing = Amst(CFG).run(paper_example()).report.extra["host_timing"]
        for name in ("fm_scan", "rape_mirrors", "cm_commit",
                     "resolve_roots"):
            assert timing[f"kernel.{name}"]["seconds"] >= 0.0
        # the section nests inside the memoized root resolution
        assert (timing["kernel.resolve_roots"]["calls"]
                == timing["sub.resolve_roots"]["calls"])

    def test_pickle_roundtrip(self):
        out = Amst(CFG).run(paper_example())
        clone = pickle.loads(pickle.dumps(out.state.timers))
        assert clone.snapshot() == out.state.timers.snapshot()
        # the clone keeps timing (and counting) after the roundtrip
        with clone.section("kernel.fm_scan"):
            pass
        assert clone.calls["kernel.fm_scan"] == 4

    def test_calls_the_module_binding(self, monkeypatch):
        # the simulator calls numpy_impl.<name> by attribute, so a
        # wrapper installed on the module (perfbench's kernels.* layers)
        # is what a whole run calls
        seen = []
        real = numpy_impl.rape_mirrors

        def spy(*args):
            seen.append(len(args))
            return real(*args)

        monkeypatch.setattr(numpy_impl, "rape_mirrors", spy)
        out = Amst(CFG).run(paper_example())
        assert seen == [3, 3]
        assert _kernel_calls(out)["rape_mirrors"] == 2


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
        counts = {"cm_commit": 2, "fm_scan": 3, "rape_mirrors": 2,
                  "resolve_roots": 3}
        assert _kernel_calls(Amst(CFG).run(paper_example())) == counts
        lru = Amst(CFG.with_(lru_cache=True)).run(paper_example())
        assert _kernel_calls(lru) == {**counts, "lru_replay": 28}

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
        cache = LRUCache(capacity=16, ways=4)  # no timers injected
        ids = np.array([1, 2, 3, 1, 2, 3, 17, 1], dtype=np.int64)
        hits = cache.lookup(ids)
        assert hits.dtype == np.bool_
        assert cache._timers.calls == {"kernel.lru_replay": 1}

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        ids = rng.integers(0, 64, 300)
        vec, ref = LRUCache(32, ways=4), ScalarLRUCache(32, ways=4)
        np.testing.assert_array_equal(
            vec.lookup(ids), ref.lookup(ids))
        assert vec.stats.evictions == ref.stats.evictions

    def test_injected_dispatcher_is_used(self):
        timers = HostTimers()
        cache = LRUCache(capacity=8, ways=2, timers=timers)
        cache.lookup(np.array([1, 2, 3], dtype=np.int64))
        assert timers.calls == {"kernel.lru_replay": 1}
