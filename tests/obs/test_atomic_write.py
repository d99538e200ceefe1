"""Every text writer goes through one atomic tempfile + rename helper.

A failure at the rename, of any exception type, must leave neither the
target nor the temp file behind.
"""

import os

import pytest

from repro.bench.benchio import write_bench_json
from repro.core import Amst, AmstConfig, save_trace_csv, save_trace_json
from repro.graph import road_lattice
from repro.obs.manifest import write_json_atomic, write_text_atomic


@pytest.fixture(scope="module")
def run_output():
    g = road_lattice(6, 6, rng=1)
    return Amst(AmstConfig.full(4, cache_vertices=32)).run(g)


WRITERS = {
    "text": lambda path, out: write_text_atomic(path, "a,b\r\n1,2\r\n",
                                                newline=""),
    "json": lambda path, out: write_json_atomic(path, {"a": 1}),
    "bench": lambda path, out: write_bench_json(path, {"a": 1}),
    "trace-csv": lambda path, out: save_trace_csv(out, path),
    "trace-json": lambda path, out: save_trace_json(out, path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_leaves_nothing(writer, run_output, tmp_path,
                                      monkeypatch):
    def boom(src, dst):
        raise RuntimeError("rename interrupted")

    monkeypatch.setattr(os, "replace", boom)
    target = tmp_path / "out" / "record.txt"
    with pytest.raises(RuntimeError, match="rename interrupted"):
        WRITERS[writer](target, run_output)
    assert not target.exists()
    assert list(target.parent.glob("*.tmp")) == []
