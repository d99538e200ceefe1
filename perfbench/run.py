"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-run --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` installs the layer wrappers of ``tracing.py`` and reports
the per-layer metrics instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; see README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload name -> module in this directory
WORKLOADS = {
    "suite-run": "suite_run",
    "verify": "verify_run",
    "scale-out": "scale_out",
    "serve-session": "serve_session",
}


@dataclass
class Context:
    """Everything a workload's ``run`` receives."""

    seed: int
    seconds: float
    size: float  # input size multiplier; 1.0 except in the smoke test
    import_s: float
    root: str  # the checkout
    tmp: str  # scratch directory inside the checkout
    rec: object | None  # tracing.Recorder in the traced run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=float, default=1.0,
                    help="input size multiplier (smoke tests only)")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    import common

    common.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args, common)
    finally:
        common.reap_children()


def _run(args, common) -> int:
    t0 = time.perf_counter()
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - t0

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)

    tmp = common.scratch_dir(ROOT)
    ctx = Context(seed=args.seed, seconds=args.seconds, size=args.size,
                  import_s=import_s, root=ROOT, tmp=tmp, rec=rec)
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))  # only when no other run uses it
        except OSError:
            pass

    if rec is not None:
        spans = os.path.join(ROOT, ".bench_spans")
        os.makedirs(spans, exist_ok=True)
        rec.dump(os.path.join(spans, f"{args.workload}-seed{args.seed}.json"))
        _finish_trace(rec, workload, outcome)
    else:
        outcome.metrics.setdefault("peak_rss_mb", common.peak_rss_mb())
    common.emit(outcome, trace=bool(args.trace))
    return 0


def _finish_trace(rec, workload, outcome) -> None:
    """Fold the span tree into the outcome; dead or broken tracing fails."""
    import tracing

    try:
        agg = tracing.aggregate(rec)
    except tracing.TreeError as exc:
        outcome.check(False, f"span tree: {exc}")
        agg = {}
    for layer in workload.EXPECTED_LAYERS:
        outcome.check(agg.get(f"{layer}.calls", 0) > 0,
                      f"layer {layer} was never reached by its wrapper")
    agg["trace.wall_s"] = agg.get(f"{tracing.ROOT}.s", 0.0)
    outcome.metrics = {**agg, **outcome.metrics}


if __name__ == "__main__":
    sys.exit(main())
