"""One writer for every ``benchmarks/BENCH_*.json`` record.

Before this module each benchmark gate carried its own ``json.dump``
call, so the records agreed on nothing beyond being JSON.  Every
writer now funnels through :func:`write_bench_json`, which

* stamps a **schema envelope** — ``schema_version`` (see
  :data:`BENCH_SCHEMA_VERSION`), the measuring checkout's ``git_sha``
  and a UTC ``generated_at`` stamp — that the analytics trendline
  loader (:mod:`repro.bench.analysis.records`) relies on to key the
  committed history by revision;
* writes **atomically** (tempfile + rename, the run-manifest
  convention) so an interrupted benchmark never leaves a torn record
  for CI or the loader to trip over;
* keeps the established on-disk style (``indent=1, sort_keys=True``)
  so re-blessing a record produces a minimal diff.

Records predating the envelope still load everywhere — the loader
treats every envelope field as optional.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..obs.context import detect_git_sha
from ..obs.manifest import write_text_atomic

__all__ = ["BENCH_SCHEMA_VERSION", "bench_envelope", "write_bench_json"]

BENCH_SCHEMA_VERSION = "amst-bench/1"


def bench_envelope(benchmark: str = "") -> dict:
    """The metadata fields every benchmark record carries."""
    env = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": detect_git_sha(),
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if benchmark:
        env["benchmark"] = benchmark
    return env


def write_bench_json(path: str | Path, doc: dict) -> Path:
    """Envelope + atomically persist one benchmark record.

    ``doc``'s own fields win over the generated envelope (a writer may
    pin its ``benchmark`` name or a caller-supplied SHA), so calling
    this on a fully-formed document only fills the gaps.
    """
    path = Path(path)
    payload = {**bench_envelope(), **doc}
    write_text_atomic(
        path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
