"""Regression trendlines across the committed ``BENCH_*.json`` history.

The per-run ``runs diff`` gate flags any metric moving ≥ 10 % in one
step — but a hot path can rot 4 % per PR for five PRs and never trip
it.  This module replays every committed revision of each benchmark
family (:func:`~repro.bench.analysis.records.load_bench_history`),
builds one series per metric keyed by git SHA, fits a least-squares
trendline, and flags **monotone drift**: three or more consecutive
revisions moving the same direction whose cumulative change clears the
threshold even though every individual step stayed under it.

Wall-clock-free by default: config echoes and host descriptors
(``host.*``, ``seed``, ``criteria.*`` …) are skipped so the gate rides
on the measured performance numbers, and a noisy timing that jumps
*up and down* never flags — only sustained same-direction movement
does, which CI-host noise essentially cannot fake.

Runnable as a module (the CI analytics job's trendline gate)::

    python -m repro.bench.analysis.trend --bench-dir benchmarks --check
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .records import RunRecord, load_bench_history

__all__ = [
    "DEFAULT_TREND_SKIP_PREFIXES",
    "DEFAULT_DRIFT_THRESHOLD",
    "MIN_TREND_POINTS",
    "MetricTrend",
    "TrendReport",
    "metric_series",
    "detect_trends",
    "main",
]

#: series that are configuration echoes or host descriptors, not
#: measurements — trending them would gate on the CI machine, not the
#: code (documented the same way as regress.DEFAULT_SKIP_PREFIXES)
DEFAULT_TREND_SKIP_PREFIXES: tuple[str, ...] = (
    "host.", "criteria.", "seed", "size", "batches", "batch_size",
    "min_speedup", "cards", "rounds", "scale", "dataset.",
    "skipped",
)

#: cumulative same-direction change that counts as drift
DEFAULT_DRIFT_THRESHOLD = 0.10

#: a "trend" needs at least this many revisions
MIN_TREND_POINTS = 3


@dataclass(frozen=True)
class MetricTrend:
    """One metric's movement across a benchmark family's history."""

    family: str
    metric: str
    shas: tuple[str, ...]
    values: tuple[float, ...]
    slope: float  # least-squares, per revision, relative to the mean
    total_drift: float  # (last - first) / |first|
    monotone_run: int  # longest same-direction streak of steps
    max_step: float  # largest single |relative step|
    flagged: bool

    def __str__(self) -> str:
        arrow = "↑" if self.total_drift > 0 else "↓"
        return (
            f"{self.family}:{self.metric} {arrow} "
            f"{100 * self.total_drift:+.1f}% over {len(self.values)} "
            f"revision(s) ({self.shas[0][:8]}..{self.shas[-1][:8]}), "
            f"max step {100 * self.max_step:.1f}%, "
            f"slope {100 * self.slope:+.2f}%/rev"
        )


@dataclass
class TrendReport:
    """All series considered, drifting ones flagged."""

    threshold: float
    families: int = 0
    series: int = 0
    flagged: list[MetricTrend] = field(default_factory=list)
    trends: list[MetricTrend] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flagged

    def format(self) -> str:
        lines = [
            f"trendlines over {self.families} benchmark famil"
            f"{'y' if self.families == 1 else 'ies'}, "
            f"{self.series} metric series at drift threshold "
            f"{100 * self.threshold:.0f}%: {len(self.flagged)} flagged"
        ]
        for t in self.flagged:
            lines.append(f"  !! {t}")
        return "\n".join(lines)


def metric_series(
    history: list[RunRecord],
    *,
    skip_prefixes: tuple[str, ...] = DEFAULT_TREND_SKIP_PREFIXES,
) -> dict[str, list[tuple[str, float]]]:
    """Per-metric ``[(sha, value), ...]`` series over one family.

    Only metrics present in every revision form a series — a metric
    that appears halfway through the history has no "before" to trend
    against, and schema growth must never read as drift.
    """
    if not history:
        return {}
    shared = set(history[0].metrics)
    for rec in history[1:]:
        shared &= set(rec.metrics)
    out: dict[str, list[tuple[str, float]]] = {}
    for name in sorted(shared):
        if any(name.startswith(p) for p in skip_prefixes):
            continue
        out[name] = [(rec.git_sha or f"rev{rec.sequence}",
                      float(rec.metrics[name])) for rec in history]
    return out


def _longest_monotone_run(steps: np.ndarray) -> int:
    """Longest streak of consecutive steps sharing one sign."""
    best = cur = 0
    prev_sign = 0
    for s in steps:
        sign = int(s > 0) - int(s < 0)
        if sign != 0 and sign == prev_sign:
            cur += 1
        else:
            cur = 1 if sign != 0 else 0
        prev_sign = sign
        best = max(best, cur)
    return best


def detect_trends(
    histories: dict[str, list[RunRecord]],
    *,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
    min_points: int = MIN_TREND_POINTS,
    skip_prefixes: tuple[str, ...] = DEFAULT_TREND_SKIP_PREFIXES,
) -> TrendReport:
    """Fit trendlines per metric series and flag monotone drift.

    A series flags when its longest same-direction streak spans the
    whole (≥ ``min_points``-revision) history, the cumulative change
    clears ``threshold``, and no single step did — precisely the rot
    the per-run gate cannot see.  Series where one step already
    clears the threshold are the per-run gate's business and are
    reported as trends but not flagged here.
    """
    report = TrendReport(threshold=threshold)
    for family in sorted(histories):
        history = histories[family]
        series = metric_series(history, skip_prefixes=skip_prefixes)
        if series:
            report.families += 1
        for metric, points in series.items():
            values = np.array([v for _, v in points], dtype=float)
            shas = tuple(s for s, _ in points)
            if values.size < min_points:
                continue
            report.series += 1
            first = values[0]
            scale = float(np.mean(np.abs(values)))
            if scale == 0.0:
                continue  # identically zero forever: nothing to trend
            steps = np.diff(values) / np.maximum(
                np.abs(values[:-1]), 1e-300)
            slope = float(
                np.polyfit(np.arange(values.size), values, 1)[0] / scale)
            total = (float(values[-1] - first) / abs(first)
                     if first != 0.0 else float("inf"))
            run = _longest_monotone_run(steps)
            max_step = float(np.max(np.abs(steps)))
            trend = MetricTrend(
                family=family, metric=metric, shas=shas,
                values=tuple(float(v) for v in values),
                slope=slope, total_drift=total,
                monotone_run=run, max_step=max_step,
                flagged=(
                    run == values.size - 1
                    and abs(total) >= threshold
                    and max_step < threshold
                ),
            )
            report.trends.append(trend)
            if trend.flagged:
                report.flagged.append(trend)
    report.flagged.sort(key=lambda t: -abs(t.total_drift))
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI gate: ``python -m repro.bench.analysis.trend [--check]``."""
    import argparse

    ap = argparse.ArgumentParser(
        description="monotone-drift trendline gate over the committed "
                    "BENCH_*.json history (docs/ANALYTICS.md)")
    ap.add_argument("--bench-dir", default="benchmarks")
    ap.add_argument("--threshold", type=float,
                    default=DEFAULT_DRIFT_THRESHOLD,
                    help="cumulative same-direction drift that flags "
                         "(default 0.10)")
    ap.add_argument("--min-points", type=int, default=MIN_TREND_POINTS)
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when any series drifts")
    ap.add_argument("--verbose", action="store_true",
                    help="also print every unflagged trend")
    args = ap.parse_args(argv)

    histories = load_bench_history(args.bench_dir)
    report = detect_trends(histories, threshold=args.threshold,
                           min_points=args.min_points)
    print(report.format())
    if args.verbose:
        for t in sorted(report.trends,
                        key=lambda t: (t.family, t.metric)):
            if not t.flagged:
                print(f"     {t}")
    return 1 if (args.check and not report.ok) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
