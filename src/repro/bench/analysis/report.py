"""Deterministic markdown + LaTeX reports over recorded artifacts.

``amst report`` renders the paper's exhibits — Table 1 (datasets),
Fig 10 (cache behaviour), Fig 13 (config ablation), Fig 14 (scaling)
— **from recorded run manifests and benchmark records only**: no live
compute, no wall clocks, no generation timestamps.  Rendering the same
inputs twice yields the same bytes, which is what lets CI pin the
committed golden report with ``amst report --check``.

Section sources:

* *Inventory* — every aggregation group found, with seed counts.
* *Table 1* — ``amst run`` manifests grouped by dataset.
* *Fig 10* — cache hit-rate metrics from the same manifests.
* *Fig 13* — significance-tested comparison of each config group
  against a baseline group on the same dataset (Wilcoxon + sign test,
  ``insufficient seeds`` under 2 paired seeds).
* *Fig 14* — the committed ``BENCH_scaleout.json`` partitioner sweep.
* *Kernel / incremental gates* — their committed BENCH summaries.

Everything numeric is formatted through one fixed-width formatter, and
every table is sorted on a stable key, so "deterministic" is a
property of the code, not a hope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .aggregate import (
    MIN_SEEDS,
    compare_groups,
    group_records,
)
from .records import RunRecord
from .stats import DEFAULT_ALPHA, summarize

__all__ = [
    "KEY_METRICS",
    "ReportTable",
    "build_tables",
    "render_markdown",
    "render_latex",
    "render_trend_markdown",
    "render_report",
]

#: deterministic per-run metrics the Fig 13 comparison table rides on
KEY_METRICS: tuple[str, ...] = (
    "sim.cycles.total",
    "sim.iterations",
    "sim.dram.blocks",
    "sim.dram.random_blocks",
    "cache.parent.hit_rate",
    "cache.minedge.hit_rate",
)


# ----------------------------------------------------------------------
# formatting primitives
# ----------------------------------------------------------------------
def _num(v, nd: int = 3) -> str:
    """One fixed numeric rendering for both output formats."""
    if v is None:
        return "—"
    if isinstance(v, float):
        if v != v:  # NaN
            return "—"
        if v == float("inf"):
            return "inf"
        if float(v).is_integer() and abs(v) < 1e15:
            return f"{int(v):,}"
        return f"{v:,.{nd}f}"
    if isinstance(v, int):
        return f"{v:,}"
    return str(v)


def _pval(p: float | None) -> str:
    if p is None:
        return "—"
    return "<0.0001" if p < 1e-4 else f"{p:.4f}"


def _tex_escape(s: str) -> str:
    return (s.replace("\\", r"\textbackslash{}")
             .replace("&", r"\&").replace("%", r"\%")
             .replace("#", r"\#").replace("_", r"\_"))


@dataclass
class ReportTable:
    """One exhibit: a caption, columns, pre-formatted string rows."""

    key: str  # e.g. "table1"
    title: str
    columns: tuple[str, ...]
    rows: list[tuple[str, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}")
        self.rows.append(tuple(str(v) for v in values))

    # -- markdown ------------------------------------------------------
    def to_markdown(self) -> str:
        lines = [f"## {self.title}", ""]
        if self.rows:
            lines.append("| " + " | ".join(self.columns) + " |")
            lines.append("|" + "|".join(
                " --- " for _ in self.columns) + "|")
            for row in self.rows:
                lines.append("| " + " | ".join(row) + " |")
        else:
            lines.append("_no recorded data for this section_")
        for note in self.notes:
            lines.append("")
            lines.append(f"> {note}")
        return "\n".join(lines)

    # -- LaTeX ---------------------------------------------------------
    def to_latex(self) -> str:
        cols = "l" * len(self.columns)
        lines = [
            r"\begin{table}[ht]",
            r"\centering",
            rf"\caption{{{_tex_escape(self.title)}}}",
            rf"\label{{table:amst_{self.key}}}",
            rf"\begin{{tabular}}{{{cols}}}",
            r"\toprule",
            " & ".join(
                rf"\textbf{{{_tex_escape(c)}}}" for c in self.columns
            ) + r" \\",
            r"\midrule",
        ]
        if self.rows:
            for row in self.rows:
                lines.append(
                    " & ".join(_tex_escape(c) for c in row) + r" \\")
        else:
            lines.append(
                rf"\multicolumn{{{len(self.columns)}}}{{c}}"
                r"{(no recorded data)} \\")
        lines += [r"\bottomrule", r"\end{tabular}"]
        for note in self.notes:
            lines.append(rf"\par\small {_tex_escape(note)}")
        lines.append(r"\end{table}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# section builders
# ----------------------------------------------------------------------
def _run_groups(
    records: list[RunRecord],
) -> dict[str, list[RunRecord]]:
    runs = [r for r in records
            if r.kind == "manifest" and r.family == "run"]
    return group_records(runs)


def _inventory_table(records: list[RunRecord]) -> ReportTable:
    t = ReportTable(
        "inventory", "Recorded inputs",
        ("Group", "Kind", "Records", "Git SHAs"),
    )
    for label, recs in group_records(
        records, by=("kind", "family", "dataset",
                     "config_fingerprint", "backend")
    ).items():
        shas = sorted({r.git_sha for r in recs if r.git_sha})
        t.add_row(label, recs[0].kind, _num(len(recs)),
                  ", ".join(s[:8] for s in shas) or "—")
    t.notes.append(
        "groups are (family, dataset, config fingerprint, backend); "
        "records in one group differ only by seed")
    return t


def _table1(records: list[RunRecord], alpha: float) -> ReportTable:
    t = ReportTable(
        "table1", "Table 1 — datasets over recorded runs",
        ("Dataset", "Runs", "Forest edges", "Weight (geomean)",
         "Iterations (med)", "Cycles (mean)", "Cycles 95% CI"),
    )
    by_dataset: dict[str, list[RunRecord]] = {}
    for recs in _run_groups(records).values():
        for r in recs:
            if r.dataset:
                by_dataset.setdefault(r.dataset, []).append(r)
    for dataset in sorted(by_dataset):
        recs = by_dataset[dataset]
        edges = sorted({int(r.summary.get("forest_edges", 0))
                        for r in recs})
        weights = [float(r.summary.get("total_weight", 0.0))
                   for r in recs]
        iters = summarize(
            [float(r.summary.get("iterations", 0)) for r in recs],
            alpha=alpha)
        cycles = summarize(
            [float(r.summary.get("total_cycles", 0.0)) for r in recs],
            alpha=alpha)
        t.add_row(
            dataset, _num(len(recs)),
            _num(edges[0]) if len(edges) == 1
            else f"{_num(edges[0])}–{_num(edges[-1])}",
            _num(summarize(weights, alpha=alpha).geomean, 1),
            _num(iters.median, 1),
            _num(cycles.mean, 1),
            f"[{_num(cycles.ci_low, 1)}, {_num(cycles.ci_high, 1)}]",
        )
    t.notes.append(
        "aggregated over dataset seeds from recorded `amst run` "
        "manifests; CI is a seeded percentile bootstrap")
    return t


def _fig10(records: list[RunRecord], alpha: float) -> ReportTable:
    t = ReportTable(
        "fig10", "Fig 10 — vertex-cache behaviour",
        ("Group", "Seeds", "Parent hit rate", "MinEdge hit rate",
         "Parent misses (mean)", "Evictions (mean)"),
    )
    for label, recs in _run_groups(records).items():
        def col(name: str):
            vals = [r.metrics[name] for r in recs if name in r.metrics]
            return summarize(vals, alpha=alpha) if len(
                vals) == len(recs) else None

        parent, minedge = col("cache.parent.hit_rate"), col(
            "cache.minedge.hit_rate")
        if parent is None and minedge is None:
            continue
        misses, evict = col("cache.parent.misses"), col(
            "cache.parent.evictions")
        t.add_row(
            label, _num(len(recs)),
            _num(parent.mean, 4) if parent else "—",
            _num(minedge.mean, 4) if minedge else "—",
            _num(misses.mean, 1) if misses else "—",
            _num(evict.mean, 1) if evict else "—",
        )
    return t


def _pick_baseline(
    labels: list[str], baseline: str | None,
    groups: dict[str, list[RunRecord]] | None = None,
) -> str | None:
    """Resolve ``baseline`` to one group label.

    Matching order: exact label, substring of a label, then substring
    of any member record's run id (group labels are fingerprints, so
    ``--baseline base`` naming a ``...-base-...`` run-id family is the
    ergonomic spelling).  No match raises rather than silently
    comparing against the wrong group.
    """
    if baseline:
        exact = [lb for lb in labels if lb == baseline]
        if exact:
            return exact[0]
        matches = [lb for lb in labels if baseline in lb]
        if not matches and groups:
            matches = [lb for lb in labels
                       if any(baseline in r.run_id
                              for r in groups.get(lb, ()))]
        if not matches:
            raise ValueError(
                f"baseline {baseline!r} matches no group; "
                f"groups: {', '.join(labels)}")
        return sorted(matches)[0]
    return sorted(labels)[0] if len(labels) > 1 else None


def _fig13(
    records: list[RunRecord], baseline: str | None, alpha: float,
) -> ReportTable:
    t = ReportTable(
        "fig13", "Fig 13 — config ablation vs baseline "
        "(paired significance)",
        ("Dataset", "Group", "Metric", "Baseline", "Candidate",
         "Δ%", "p (Wilcoxon)", "p (sign)", "Verdict"),
    )
    groups = _run_groups(records)
    by_dataset: dict[str, list[str]] = {}
    for label, recs in groups.items():
        ds = recs[0].dataset
        if ds:
            by_dataset.setdefault(ds, []).append(label)
    base_label_used = []
    for dataset in sorted(by_dataset):
        labels = sorted(by_dataset[dataset])
        try:
            base_label = _pick_baseline(labels, baseline, groups)
        except ValueError:
            # a baseline naming no group in *this* dataset is not an
            # error — other datasets may still match — but never
            # silently substitute a different baseline for it
            base_label = (sorted(labels)[0]
                          if len(labels) > 1 and not baseline else None)
        if base_label is None:
            continue
        base_label_used.append(f"{dataset}: {base_label}")
        for label in labels:
            if label == base_label:
                continue
            comps = compare_groups(
                groups[base_label], groups[label],
                metrics=list(KEY_METRICS), alpha=alpha)
            for c in sorted(comps, key=lambda c: c.metric):
                t.add_row(
                    dataset, label, c.metric,
                    _num(c.base_mean, 3), _num(c.new_mean, 3),
                    "new" if c.rel_delta == float("inf")
                    else f"{100 * c.rel_delta:+.2f}%",
                    _pval(c.wilcoxon.p_value if c.wilcoxon else None),
                    _pval(c.sign.p_value if c.sign else None),
                    c.verdict,
                )
    if base_label_used:
        t.notes.append("baseline group per dataset: "
                       + "; ".join(base_label_used))
    t.notes.append(
        f"two-sided Wilcoxon signed-rank + sign test at "
        f"α={alpha:g}; pairs matched by graph fingerprint (seed); "
        f"fewer than {MIN_SEEDS} paired seeds ⇒ no verdict")
    return t


def _bench_by_family(
    records: list[RunRecord],
) -> dict[str, RunRecord]:
    out: dict[str, RunRecord] = {}
    for r in records:
        if r.kind == "bench":
            out[r.family] = r  # last one wins; loader sorts by path
    return out


def _fig14(records: list[RunRecord]) -> ReportTable:
    t = ReportTable(
        "fig14", "Fig 14 — multi-card scaling "
        "(partitioner sweep, modelled)",
        ("Partitioner", "Cards", "Cut fraction", "Balance",
         "Modelled speedup"),
    )
    rec = _bench_by_family(records).get("BENCH_scaleout")
    if rec is None:
        return t
    rows = []
    for key, cell in rec.summary.items():
        if not isinstance(cell, dict) or "@" not in key:
            continue
        part, cards = key.rsplit("@", 1)
        try:
            rows.append((part, int(cards), cell))
        except ValueError:
            continue
    for part, cards, cell in sorted(rows, key=lambda r: (r[0], r[1])):
        t.add_row(
            part, _num(cards),
            _num(float(cell.get("cut_fraction", float("nan"))), 4),
            _num(float(cell.get("balance", float("nan"))), 3),
            f"{float(cell.get('modelled_speedup', float('nan'))):.3f}x",
        )
    if rec.git_sha:
        t.notes.append(f"source: {rec.family}.json @ {rec.git_sha[:8]}")
    return t


def _gates(records: list[RunRecord]) -> ReportTable:
    t = ReportTable(
        "gates", "Benchmark gates on record",
        ("Family", "Benchmark", "Git SHA", "Headline"),
    )
    fams = _bench_by_family(records)
    for family in sorted(fams):
        rec = fams[family]
        headline = "recorded"
        if rec.metrics.get("skipped") == 1.0:
            headline = "skipped (prerequisite absent on host)"
        elif family == "BENCH_incremental" and rec.summary:
            speedups = [
                f"{ds} {float(cell.get('speedup', 0)):.1f}x"
                for ds, cell in sorted(rec.summary.items())
                if isinstance(cell, dict) and "speedup" in cell
            ]
            if speedups:
                headline = "incremental vs full: " + ", ".join(speedups)
        elif family == "BENCH_pr4":
            warm = rec.metrics.get("oracle.warm_speedup")
            if warm is not None:
                headline = f"warm run-cache oracle: {warm:.1f}x"
        elif family == "BENCH_scaleout":
            ident = rec.metrics.get("criteria.all_byte_identical")
            headline = ("all card counts byte-identical to serial"
                        if ident == 1.0 else "recorded")
        t.add_row(family, rec.run_id or "—",
                  rec.git_sha[:8] if rec.git_sha else "—", headline)
    return t


def build_tables(
    records: list[RunRecord],
    *,
    baseline: str | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> list[ReportTable]:
    """All report sections, in render order."""
    return [
        _inventory_table(records),
        _table1(records, alpha),
        _fig10(records, alpha),
        _fig13(records, baseline, alpha),
        _fig14(records),
        _gates(records),
    ]


# ----------------------------------------------------------------------
# whole-document rendering
# ----------------------------------------------------------------------
_HEADER_MD = (
    "# AMST experiment report\n"
    "\n"
    "Rendered from recorded run manifests and benchmark records only "
    "(no live compute). Statistics: seeded-bootstrap CIs, two-sided "
    "Wilcoxon signed-rank and sign tests — see docs/ANALYTICS.md.\n"
)

_HEADER_TEX = (
    "%% AMST experiment report (auto-generated; do not edit)\n"
    "%% Rendered from recorded run manifests and benchmark records "
    "only.\n"
)


def render_markdown(tables: list[ReportTable]) -> str:
    parts = [_HEADER_MD]
    parts.extend(t.to_markdown() for t in tables)
    return "\n".join(parts) + "\n"


def render_latex(tables: list[ReportTable]) -> str:
    parts = [_HEADER_TEX]
    parts.extend(t.to_latex() for t in tables)
    return "\n\n".join(parts) + "\n"


def render_trend_markdown(trend_report) -> str:
    """Markdown section for a :class:`~.trend.TrendReport`.

    Kept out of the golden-checked report body: the trend section
    depends on the *git history* of the checkout, so its bytes change
    with every commit even when the recorded inputs do not.
    """
    t = ReportTable(
        "trends", "Trendlines — committed benchmark history",
        ("Family", "Metric", "Revisions", "Total drift", "Max step",
         "Slope/rev"),
    )
    for tr in trend_report.flagged:
        t.add_row(
            tr.family, tr.metric, _num(len(tr.values)),
            f"{100 * tr.total_drift:+.1f}%",
            f"{100 * tr.max_step:.1f}%",
            f"{100 * tr.slope:+.2f}%",
        )
    if not trend_report.flagged:
        t.notes.append(
            f"no monotone drift ≥ "
            f"{100 * trend_report.threshold:.0f}% across "
            f"{trend_report.series} metric series in "
            f"{trend_report.families} famil"
            f"{'y' if trend_report.families == 1 else 'ies'}")
    return t.to_markdown()


def render_report(
    records: list[RunRecord],
    *,
    fmt: str = "md",
    baseline: str | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> str:
    """Render the full report as one string (``fmt``: md | latex)."""
    tables = build_tables(records, baseline=baseline, alpha=alpha)
    if fmt == "md":
        return render_markdown(tables)
    if fmt in ("latex", "tex"):
        return render_latex(tables)
    raise ValueError(f"unknown report format {fmt!r} (md, latex)")
