"""Telemetry over a real simulator run: span tree + byte-identity."""

from collections import defaultdict

import numpy as np
import pytest

from repro.bench.datasets import default_cache_vertices, load
from repro.core import Amst, AmstConfig
from repro.graph import rmat
from repro.obs import Telemetry, activate, deactivate, validate_span_tree
from repro.obs.validate import validate_chrome_trace

CFG = AmstConfig.full(4, cache_vertices=64)


def _graph():
    return rmat(7, 6, rng=11)


class TestSpanTree:
    def test_run_produces_wellformed_nested_tree(self):
        tel = Telemetry()
        out = Amst(CFG).run(_graph(), telemetry=tel)
        assert out.result.num_edges > 0
        assert validate_span_tree(tel.spans.spans) == []
        cats = {s.category for s in tel.spans.spans}
        assert {"run", "iteration", "stage", "subsystem"} <= cats
        # every iteration span is a child of the run span
        run = next(s for s in tel.spans.spans if s.category == "run")
        for s in tel.spans.spans:
            if s.category == "iteration":
                assert s.parent_id == run.id

    def test_chrome_export_roundtrips_validation(self):
        tel = Telemetry()
        Amst(CFG).run(_graph(), telemetry=tel)
        assert validate_chrome_trace(tel.chrome_trace()) == []

    def test_ambient_telemetry_is_picked_up(self):
        tel = Telemetry()
        previous = activate(tel)
        try:
            Amst(CFG).run(_graph())
        finally:
            deactivate(previous)
        assert any(s.category == "run" for s in tel.spans.spans)


class TestRecorderContract:
    """The host profile and the trace are one recording: every timer
    section is a span stamped from the section's own clock readings."""

    @pytest.mark.parametrize("key", ["RC", "CF"])
    def test_profile_rows_are_their_spans(self, key):
        g = load(key, size=0.1)
        cfg = AmstConfig.full(4, cache_vertices=default_cache_vertices(0.1))
        tel = Telemetry()
        out = Amst(cfg).run(g, telemetry=tel)
        spans = tel.spans.spans
        assert validate_span_tree(spans) == []
        by_name = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
        timing = out.report.extra["host_timing"]
        assert {"stage.fm", "sub.hbm", "kernel.fm_scan"} <= set(timing)
        for name, row in timing.items():
            calls = row["calls"]
            assert len(by_name[name]) == calls, name
            span_us = sum(s.dur_us for s in by_name[name])
            assert abs(span_us - row["seconds"] * 1e6) <= calls, name

        by_id = {s.id: s for s in spans}

        def parents(name):
            return {by_id[s.parent_id].name for s in by_name[name]}

        assert parents("kernel.fm_scan") == {"stage.fm"}
        assert parents("kernel.resolve_roots") == {"sub.resolve_roots"}
        # the MinEdge writer's cache and HBM calls nest in the network
        assert "sub.network" in parents("sub.cache.minedge")
        assert "sub.network" in parents("sub.hbm")


class TestMetricsAdapters:
    def test_record_output_namespaces(self):
        tel = Telemetry()
        out = Amst(CFG).run(_graph(), telemetry=tel)
        tel.record_output(out)
        flat = tel.metrics.flat()
        assert flat["sim.iterations"] == out.report.num_iterations
        assert flat["sim.cycles.total"] == out.report.total_cycles
        assert any(k.startswith("events.fm.") for k in flat)
        assert any(k.startswith("cache.parent.") for k in flat)
        assert any(k.startswith("host.stage.") for k in flat)
        hist = tel.metrics.as_dict()["histograms"]["sim.iteration_cycles"]
        assert hist["count"] == len(out.log.iterations)

    def test_eventlog_to_metrics_adapter(self):
        out = Amst(CFG).run(_graph())
        metrics = out.log.to_metrics("events")
        totals = out.log.grand_totals()
        assert metrics["events.fm.tasks"] == totals["fm.tasks"]
        assert list(metrics) == sorted(metrics)


class TestByteIdentity:
    def test_simulation_identical_with_and_without_telemetry(self):
        g = _graph()
        plain = Amst(CFG).run(g)
        tel = Telemetry()
        traced = Amst(CFG).run(g, telemetry=tel)

        np.testing.assert_array_equal(plain.result.edge_ids,
                                      traced.result.edge_ids)
        assert plain.result.total_weight == traced.result.total_weight
        assert plain.result.num_components == traced.result.num_components
        assert plain.report.total_cycles == traced.report.total_cycles
        assert plain.report.dram_blocks == traced.report.dram_blocks
        assert plain.log.grand_totals() == traced.log.grand_totals()
        assert plain.report.summary() == traced.report.summary()
        # and the telemetry actually recorded something
        assert tel.spans.spans

    def test_self_check_still_green_under_telemetry(self):
        tel = Telemetry()
        Amst(CFG.with_(self_check=True)).run(_graph(), telemetry=tel)
        assert validate_span_tree(tel.spans.spans) == []
