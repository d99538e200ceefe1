"""Unit tests for the execution-trace subsystem."""

import csv
import json

import pytest

from repro.core import (
    Amst,
    AmstConfig,
    format_profile,
    save_trace_csv,
    save_trace_json,
    trace_run,
)
from repro.graph import road_lattice


@pytest.fixture(scope="module")
def run_output():
    g = road_lattice(20, 20, rng=1)
    return Amst(AmstConfig.full(8, cache_vertices=128)).run(g)


class TestTraceRun:
    def test_one_row_per_iteration(self, run_output):
        rows = trace_run(run_output)
        assert len(rows) == len(run_output.log.iterations)
        assert [r.iteration for r in rows] == list(range(len(rows)))

    def test_fields_sane(self, run_output):
        for r in trace_run(run_output):
            assert r.fm_cycles >= 0
            assert r.rape_cycles >= 0
            assert r.cm_cycles >= 0
            assert 0.0 <= r.parent_hit_rate <= 1.0
            assert 0.0 <= r.parent_cache_utilization <= 1.0
            assert r.forwarded <= max(r.candidates, 1) or r.candidates == 0

    def test_appended_sums_to_forest(self, run_output):
        total = sum(r.appended for r in trace_run(run_output))
        assert total == run_output.result.num_edges


class TestExport:
    def test_csv_round_trip(self, run_output, tmp_path):
        path = tmp_path / "trace.csv"
        rows = save_trace_csv(run_output, path)
        with open(path) as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == len(rows)
        assert int(read[0]["fm_tasks"]) == rows[0].fm_tasks

    def test_json_structure(self, run_output, tmp_path):
        path = tmp_path / "trace.json"
        save_trace_json(run_output, path)
        payload = json.loads(path.read_text())
        assert payload["config"]["parallelism"] == 8
        assert "meps" in payload["summary"]
        assert len(payload["iterations"]) > 0


class TestAtomicExport:
    def test_csv_creates_parent_dirs(self, run_output, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.csv"
        rows = save_trace_csv(run_output, path)
        assert path.exists()
        with open(path) as fh:
            assert len(list(csv.DictReader(fh))) == len(rows)

    def test_json_creates_parent_dirs(self, run_output, tmp_path):
        path = tmp_path / "a" / "b" / "trace.json"
        save_trace_json(run_output, path)
        payload = json.loads(path.read_text())
        assert payload["config"]["parallelism"] == 8

    def test_no_temp_files_left_behind(self, run_output, tmp_path):
        save_trace_csv(run_output, tmp_path / "t.csv")
        save_trace_json(run_output, tmp_path / "t.json")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["t.csv", "t.json"]


class TestProfile:
    def test_profile_renders(self, run_output):
        text = format_profile(run_output)
        assert "FM%" in text
        assert "F" in text.splitlines()[1]

    def test_empty_run(self):
        from repro.graph import from_edges
        import numpy as np

        g = from_edges(1, np.array([], dtype=int), np.array([], dtype=int))
        out = Amst(AmstConfig.full(4, cache_vertices=4)).run(g)
        text = format_profile(out)
        assert isinstance(text, str)
