"""Run-manifest store: ``runs/<run-id>/`` directories on disk.

One instrumented run persists as a directory of four files:

* ``manifest.json`` — run context, command line, the flat metric map
  (the diffable view), a result summary and file inventory;
* ``metrics.json`` — the full registry snapshot (counters, gauges,
  histograms);
* ``metrics.prom`` — Prometheus text exposition format;
* ``trace.json`` — Chrome trace-event JSON (load in ``chrome://tracing``
  or https://ui.perfetto.dev).

All writes are atomic (tempfile + rename, the run-cache disk-tier
convention), so a killed run never leaves a torn manifest for
``amst runs diff`` to trip over.  References accepted by
:meth:`RunStore.resolve`: a run ID, the literal ``latest`` (most
recently started), or a filesystem path to a ``manifest.json`` / run
directory — the CLI and CI pass any of the three.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["MANIFEST_SCHEMA", "RunStore", "write_json_atomic"]

MANIFEST_SCHEMA = "amst-run-manifest/1"


def write_json_atomic(path: Path, payload: dict) -> None:
    """Serialize ``payload`` to ``path`` via tempfile + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RunStore:
    """Directory of per-run telemetry artifacts (default ``runs/``)."""

    def __init__(self, root: str | Path = "runs") -> None:
        self.root = Path(root)

    # -- writing -------------------------------------------------------
    def write(self, telemetry) -> Path:
        """Persist one finished telemetry session; returns the run dir."""
        ctx = telemetry.context
        run_dir = self.root / ctx.run_id
        trace = telemetry.chrome_trace()
        metrics = telemetry.metrics.as_dict()
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run": ctx.as_dict(),
            "metrics": telemetry.metrics.flat(),
            "summary": telemetry.summary or {},
            "num_spans": len(telemetry.spans.spans),
            "num_processes": len(
                {s.pid for s in telemetry.spans.spans}) or 1,
            "files": {
                "manifest": "manifest.json",
                "metrics_json": "metrics.json",
                "metrics_prom": "metrics.prom",
                "trace": "trace.json",
            },
        }
        write_json_atomic(run_dir / "metrics.json", metrics)
        _write_text_atomic(
            run_dir / "metrics.prom", telemetry.metrics.to_prometheus())
        write_json_atomic(run_dir / "trace.json", trace)
        write_json_atomic(run_dir / "manifest.json", manifest)
        return run_dir

    # -- reading -------------------------------------------------------
    def list_runs(self) -> list[dict]:
        """Every readable manifest under the root, oldest first."""
        out = []
        if not self.root.is_dir():
            return out
        for entry in sorted(self.root.iterdir()):
            manifest = entry / "manifest.json"
            if not manifest.is_file():
                continue
            try:
                with open(manifest, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            data["_path"] = str(manifest)
            out.append(data)
        out.sort(key=lambda d: (d.get("run", {}).get("started_at", ""),
                                d.get("run", {}).get("run_id", "")))
        return out

    def resolve(self, ref: str) -> Path:
        """Map a run reference to its ``manifest.json`` path.

        Accepts ``latest``, a run ID under the store root, or a path to
        a manifest file / run directory anywhere on disk.
        """
        if ref == "latest":
            runs = self.list_runs()
            if not runs:
                raise FileNotFoundError(
                    f"no runs recorded under {self.root}")
            return Path(runs[-1]["_path"])
        candidate = self.root / ref / "manifest.json"
        if candidate.is_file():
            return candidate
        path = Path(ref)
        if path.is_dir() and (path / "manifest.json").is_file():
            return path / "manifest.json"
        if path.is_file():
            return path
        raise FileNotFoundError(
            f"cannot resolve run reference {ref!r} "
            f"(not a run id under {self.root}, 'latest', or a path)"
        )

    def load_manifest(self, ref: str) -> dict:
        with open(self.resolve(ref), encoding="utf-8") as fh:
            return json.load(fh)
