"""Host wall-clock profiling layer (``repro.core.timing``)."""

import numpy as np

from repro.core import Amst, AmstConfig, HostTimers, format_host_profile
from repro.core.timing import TimedSubsystem
from repro.graph import rmat
from repro.obs import Telemetry


class TestHostTimers:
    def test_section_accumulates(self):
        t = HostTimers()
        for _ in range(3):
            with t.section("stage.fm"):
                pass
        assert t.calls["stage.fm"] == 3
        assert t.seconds["stage.fm"] >= 0.0

    def test_section_records_on_exception(self):
        t = HostTimers()
        try:
            with t.section("x"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert t.calls["x"] == 1

    def test_snapshot_roundtrip_through_formatter(self):
        t = HostTimers()
        t.add("stage.fm", 0.25)
        t.add("sub.hbm", 0.5)
        snap = t.snapshot()
        assert snap["stage.fm"]["calls"] == 1
        # formatter accepts both the object and its snapshot dict
        assert format_host_profile(t) == format_host_profile(snap)

    def test_format_empty(self):
        assert "no samples" in format_host_profile(HostTimers())

    def test_format_is_deterministic_for_same_workload(self):
        # counts_only drops wall-clock readings, so two runs of the same
        # workload must render byte-identically (stable sort + fixed
        # formatting), which `amst runs diff` relies on.
        g = rmat(6, 8, rng=5)
        cfg = AmstConfig.full(4, cache_vertices=64)
        texts = []
        for _ in range(2):
            out = Amst(cfg).run(g)
            texts.append(format_host_profile(
                out.report.extra["host_timing"], counts_only=True))
        assert texts[0] == texts[1]
        assert "call counts only" in texts[0]
        assert "stage.fm" in texts[0]

    def test_rows_sorted_by_name(self):
        t = HostTimers()
        t.add("stage.zz", 1.0)
        t.add("stage.aa", 2.0)
        lines = format_host_profile(t).splitlines()
        rows = [ln for ln in lines if "stage." in ln]
        assert rows == sorted(rows)


class TestTimedSubsystem:
    class Inner:
        tag = "inner-attr"

        def fast(self, x):
            return x + 1

        def other(self):
            return "untimed"

    def test_times_selected_methods_only(self):
        t = HostTimers()
        proxy = TimedSubsystem(self.Inner(), t, "sub.x", ("fast",))
        assert proxy.fast(1) == 2
        assert proxy.other() == "untimed"
        assert proxy.tag == "inner-attr"
        assert t.calls == {"sub.x": 1}

    def test_private_probes_raise_attribute_error(self):
        # pickle interrogates a freshly allocated instance for
        # __setstate__/__reduce_ex__ before _inner exists; forwarding
        # those probes used to recurse forever during unpickling.
        proxy = TimedSubsystem(self.Inner(), HostTimers(), "sub.x", ())
        import pytest

        with pytest.raises(AttributeError):
            proxy.__setstate_probe__
        with pytest.raises(AttributeError):
            proxy._does_not_exist

    def test_amst_output_pickles_round_trip(self):
        # AmstOutput carries TimedSubsystem-wrapped caches in SimState;
        # parallel workers ship it back through pickle, so the full
        # round trip is load-bearing for --jobs execution.  A traced run
        # must detach its span recorder from the timers before returning.
        import pickle

        g = rmat(6, 6, rng=9)
        for telemetry in (None, Telemetry()):
            out = Amst(AmstConfig.full(4, cache_vertices=32)).run(
                g, telemetry=telemetry)
            clone = pickle.loads(pickle.dumps(out))
            np.testing.assert_array_equal(clone.result.edge_ids,
                                          out.result.edge_ids)
            assert clone.report.total_cycles == out.report.total_cycles


class TestRunProfile:
    def test_report_carries_host_timing(self):
        g = rmat(6, 8, rng=1)
        out = Amst(AmstConfig.full(4, cache_vertices=64)).run(g)
        timing = out.report.extra["host_timing"]
        for key in ("stage.fm", "stage.rm_am", "stage.cm",
                    "sub.cache.parent", "sub.cache.minedge", "sub.hbm",
                    "sub.network", "sub.resolve_roots"):
            assert key in timing, key
            assert timing[key]["calls"] > 0
        # one FM pass per completed iteration + the termination probe
        assert timing["stage.fm"]["calls"] == out.result.iterations + 1

    def test_proxies_do_not_change_results(self):
        g = rmat(6, 8, rng=3)
        cfg = AmstConfig.full(4, cache_vertices=64)
        a, b = Amst(cfg).run(g), Amst(cfg).run(g)
        assert a.result.total_weight == b.result.total_weight
        np.testing.assert_array_equal(np.sort(a.result.edge_ids),
                                      np.sort(b.result.edge_ids))
        assert a.report.total_cycles == b.report.total_cycles
