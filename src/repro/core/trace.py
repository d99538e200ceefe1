"""Execution traces: per-iteration structured profiles of a run.

Turns an :class:`~repro.core.accelerator.AmstOutput` into tabular
per-iteration rows (module cycles, event counts, cache behaviour) that
can be exported to CSV/JSON or rendered as an ASCII profile — the
debugging view an RTL designer would pull from an ILA capture.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass

from ..obs.manifest import write_text_atomic
from .accelerator import AmstOutput
from .perf import iteration_cycles

__all__ = ["IterationTrace", "trace_run", "save_trace_csv",
           "save_trace_json", "format_profile"]


@dataclass(frozen=True)
class IterationTrace:
    """One iteration's profile row."""

    iteration: int
    fm_cycles: float
    rape_cycles: float
    cm_cycles: float
    fm_tasks: int
    candidates: int
    forwarded: int
    appended: int
    ie_marks: int
    iv_marks: int
    parent_hit_rate: float
    dram_blocks: int
    parent_cache_utilization: float
    minedge_cache_utilization: float


def trace_run(out: AmstOutput) -> list[IterationTrace]:
    """Extract the per-iteration profile of a finished run."""
    cfg = out.report.cfg
    rows = []
    for ev in out.log.iterations:
        cycles = iteration_cycles(ev, cfg)
        lookups = ev.get("fm.parent_lookups")
        hits = ev.get("fm.parent_hits")
        rows.append(
            IterationTrace(
                iteration=ev.iteration,
                fm_cycles=round(cycles["fm"].total, 1),
                rape_cycles=round(cycles["rape"].total, 1),
                cm_cycles=round(cycles["cm"].total, 1),
                fm_tasks=ev.get("fm.tasks"),
                candidates=ev.get("fm.candidates"),
                forwarded=ev.get("fm.candidates_forwarded"),
                appended=ev.get("rape.appends"),
                ie_marks=ev.get("fm.ie_marks"),
                iv_marks=ev.get("fm.iv_marks"),
                parent_hit_rate=round(hits / lookups, 4) if lookups else 0.0,
                dram_blocks=ev.total("mem."),
                parent_cache_utilization=round(
                    ev.parent_cache_utilization, 4
                ),
                minedge_cache_utilization=round(
                    ev.minedge_cache_utilization, 4
                ),
            )
        )
    return rows


def save_trace_csv(
    out: AmstOutput, path: str | os.PathLike
) -> list[IterationTrace]:
    """Write the per-iteration trace rows to a CSV file.

    Parent directories are created as needed; the write is atomic
    (tempfile + rename).
    """
    import io

    rows = trace_run(out)
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(
        buf, fieldnames=list(IterationTrace.__dataclass_fields__)
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(asdict(row))
    write_text_atomic(path, buf.getvalue(), newline="")
    return rows


def save_trace_json(
    out: AmstOutput, path: str | os.PathLike
) -> list[IterationTrace]:
    """Write config, summary and trace rows to a JSON file.

    Parent directories are created as needed; the write is atomic
    (tempfile + rename).
    """
    rows = trace_run(out)
    payload = {
        "config": {
            "parallelism": out.report.cfg.parallelism,
            "cache_vertices": out.report.cfg.cache_vertices,
            "frequency_mhz": out.report.cfg.frequency_mhz,
        },
        "summary": out.report.summary(),
        "iterations": [asdict(r) for r in rows],
    }
    write_text_atomic(path, json.dumps(payload, indent=2))
    return rows


def format_profile(out: AmstOutput, width: int = 40) -> str:
    """ASCII per-iteration module-time profile (FM/RAPE/CM bars)."""
    rows = trace_run(out)
    if not rows:
        return "(empty run)\n"
    peak = max(r.fm_cycles + r.rape_cycles + r.cm_cycles for r in rows)
    peak = max(peak, 1.0)
    lines = [
        "it    FM%  RAPE%   CM%  tasks     fwd  hit%   util%  profile "
        "(F=FM, R=RAPE, C=CM)"
    ]
    for r in rows:
        total = r.fm_cycles + r.rape_cycles + r.cm_cycles
        if total <= 0:
            continue
        scale = width * total / peak
        nf = int(round(scale * r.fm_cycles / total))
        nr = int(round(scale * r.rape_cycles / total))
        nc = int(round(scale * r.cm_cycles / total))
        bar = "F" * nf + "R" * nr + "C" * nc
        lines.append(
            f"{r.iteration:2d}  {100 * r.fm_cycles / total:5.1f} "
            f"{100 * r.rape_cycles / total:6.1f} "
            f"{100 * r.cm_cycles / total:5.1f}  {r.fm_tasks:5d} "
            f"{r.forwarded:7d} {100 * r.parent_hit_rate:5.1f} "
            f"{100 * r.parent_cache_utilization:6.1f}  {bar}"
        )
    return "\n".join(lines) + "\n"
