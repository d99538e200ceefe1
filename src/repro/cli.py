"""``amst`` command-line interface.

Subcommands::

    amst run --dataset RC --parallelism 16      # one accelerator run
    amst run --dataset RC --self-check          # + per-iteration invariants
    amst run --telemetry --jobs 2               # + recorded run manifest
    amst bench --experiment fig13 --scale 0.5   # reproduce one exhibit
    amst bench --experiment all                 # reproduce everything
    amst verify                                 # oracle + golden traces
    amst verify --update-golden                 # re-bless golden traces
    amst scaleout --cards 4 --jobs 4            # multi-card partitioned MST
    amst serve --port 8787                      # long-lived daemon
    amst client publish --dataset RC            # talk to a daemon
    amst client submit --kind run --graph FP    # async job submission
    amst runs list                              # recorded telemetry runs
    amst runs diff A B                          # flag metric regressions
    amst runs diff A1,A2 B1,B2 --significance   # paired Wilcoxon verdict
    amst report --out report.md                 # render experiment report
    amst report --check tests/golden/analysis/report.md
    amst datasets                               # print Table I
    amst resources                              # print Fig 16

All experiments are deterministic under ``--seed``.  ``--telemetry``
(on ``run``/``sweep``/``verify``/``scaleout``) records a run-scoped
span tree and metric registry and writes ``runs/<run-id>/`` — see
docs/OBSERVABILITY.md; results are byte-identical with it on or off.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import bench
from .bench.datasets import default_cache_vertices, load
from .bench.executor import run_experiments, run_sweeps
from .bench.figures import EXPERIMENTS
from .bench.sweeps import SWEEPS
from .core import (
    Amst,
    AmstConfig,
    format_host_profile,
    format_profile,
    save_trace_csv,
    save_trace_json,
)
from .fabric import list_net_profiles, list_partitioners


@contextmanager
def _telemetry_session(args: argparse.Namespace, command: str):
    """Scope one CLI command as a telemetry session (or a no-op).

    With ``--telemetry``: mints a :class:`~repro.obs.context.RunContext`,
    activates the ambient telemetry so every instrumented layer records
    into it, opens the root ``cmd:<command>`` span, and on exit folds in
    the shared-memory counters and persists ``<runs-dir>/<run-id>/``.
    Without the flag the command body runs exactly as before.
    """
    if not getattr(args, "telemetry", False):
        yield None
        return
    from .obs import RunStore, Telemetry
    from .obs.context import activate, deactivate, new_run_context

    tel = Telemetry(context=new_run_context(
        run_id=getattr(args, "run_id", None),
        command=command,
    ))
    previous = activate(tel)
    try:
        with tel.spans.span(f"cmd:{command}", category="run"):
            yield tel
    finally:
        deactivate(previous)
        tel.record_shm()
        run_dir = RunStore(getattr(args, "runs_dir", "runs")).write(tel)
        print(f"telemetry    : run {tel.context.run_id} -> "
              f"{run_dir / 'manifest.json'}")


def _sim_run_task(cfg: AmstConfig, graph) -> tuple:
    """Worker body: the full simulator run (``amst run --jobs N``)."""
    from .graph.shm import resolve_graph

    return (Amst(cfg).run(resolve_graph(graph)),)


def _kruskal_task(graph) -> tuple:
    """Worker body: the Kruskal reference forest."""
    from .graph.shm import resolve_graph
    from .mst import kruskal

    return (kruskal(resolve_graph(graph)),)


def _cmd_run(args: argparse.Namespace) -> int:
    with _telemetry_session(args, "run") as tel:
        return _cmd_run_body(args, tel)


def _cmd_run_body(args: argparse.Namespace, tel) -> int:
    g = load(args.dataset, seed=args.seed, size=args.scale)
    cache = args.cache_vertices or default_cache_vertices(args.scale)
    cfg = AmstConfig.full(args.parallelism, cache_vertices=cache)
    if args.self_check:
        cfg = cfg.with_(self_check=True)
    if tel is not None:
        from .bench.runcache import config_fingerprint, graph_fingerprint

        tel.context = tel.context.with_(
            graph_fingerprint=graph_fingerprint(g),
            config_fingerprint=config_fingerprint(cfg),
        )
    reference = None
    if args.jobs > 1:
        # The simulator run and the Kruskal reference are independent;
        # fan them over the pool (zero-copy graph hand-off).  The
        # simulated output is byte-identical to the inline path — only
        # the transport differs.
        from .bench.executor import TaskSpec, execute
        from .graph.shm import GraphStore

        with GraphStore() as store:
            shared = store.publish_graph(g)
            groups = execute([
                TaskSpec(key="run.sim", fn=_sim_run_task,
                         kwargs={"cfg": cfg, "graph": shared}),
                TaskSpec(key="run.kruskal", fn=_kruskal_task,
                         kwargs={"graph": shared}),
            ], jobs=args.jobs)
        out, reference = groups[0][0], groups[1][0]
    else:
        out = Amst(cfg).run(g)
    r = out.report
    print(f"dataset      : {args.dataset} "
          f"(n={g.num_vertices:,}, m={g.num_edges:,})")
    print(f"forest       : {out.result.num_edges:,} edges, "
          f"weight {out.result.total_weight:,.0f}, "
          f"{out.result.num_components} component(s)")
    print(f"iterations   : {r.num_iterations}")
    print(f"cycles       : {r.total_cycles:,.0f} "
          f"({r.seconds * 1e3:.3f} ms @ {cfg.frequency_mhz:.0f} MHz)")
    print(f"throughput   : {r.meps:,.1f} MEPS")
    print(f"DRAM blocks  : {r.dram_blocks:,} "
          f"({r.dram_random_blocks:,} random)")
    print(f"energy       : {r.energy_joules * 1e3:.3f} mJ "
          f"@ {r.power_watts:.1f} W")
    if args.validate:
        from .mst import kruskal, validate_mst

        validate_mst(g, out.result, reference=reference or kruskal(g))
        print("validation   : forest matches Kruskal (weight-exact)")
    if args.self_check:
        print("self-check   : invariants held every iteration "
              "(union-find, caches, event ledger)")
    if args.profile_host:
        print()
        print(format_host_profile(r.extra["host_timing"]), end="")
    if tel is not None:
        tel.record_output(out)
        tel.summary = {
            "dataset": args.dataset,
            "forest_edges": int(out.result.num_edges),
            "total_weight": float(out.result.total_weight),
            "num_components": int(out.result.num_components),
            "iterations": int(r.num_iterations),
            "total_cycles": float(r.total_cycles),
        }
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    for result in run_experiments(
        names, size=args.scale, seed=args.seed, jobs=args.jobs
    ):
        print(result.to_text())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    names = list(SWEEPS) if args.sweep == "all" else [args.sweep]
    with _telemetry_session(args, "sweep") as tel:
        for result in run_sweeps(
            names, dataset=args.dataset, size=args.scale, seed=args.seed,
            cache_vertices=args.cache_vertices, jobs=args.jobs,
        ):
            print(result.to_text())
        if tel is not None:
            tel.metrics.inc("sweep.tasks", len(names))
            tel.summary = {"sweeps": names, "dataset": args.dataset}
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    g = load(args.dataset, seed=args.seed, size=args.scale)
    cache = args.cache_vertices or default_cache_vertices(args.scale)
    cfg = AmstConfig.full(args.parallelism, cache_vertices=cache)
    out = Amst(cfg).run(g)
    print(format_profile(out))
    if args.csv:
        save_trace_csv(out, args.csv)
        print(f"trace written to {args.csv}")
    if args.json:
        save_trace_json(out, args.json)
        print(f"trace written to {args.json}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with _telemetry_session(args, "verify") as tel:
        return _cmd_verify_body(args, tel)


def _cmd_verify_body(args: argparse.Namespace, tel) -> int:
    """Differential verification: oracle harness + golden traces.

    Exit status is non-zero on any oracle mismatch or golden drift, so
    CI can gate on it (see docs/TESTING.md).
    """
    from .verify import (
        GOLDEN_CASES,
        check_golden,
        run_oracle,
        update_golden,
    )

    names = args.case or list(GOLDEN_CASES)
    unknown = [n for n in names if n not in GOLDEN_CASES]
    if unknown:
        print(f"unknown golden case(s): {', '.join(unknown)}; "
              f"available: {', '.join(GOLDEN_CASES)}")
        return 2

    if args.update_golden:
        for path in update_golden(
            names, directory=args.golden_dir, jobs=args.jobs
        ):
            print(f"blessed {path}")
        return 0

    # Content-addressed run cache, at every --jobs value: golden cases
    # share graphs (the two road-* and dup-forest-* pairs), so reference
    # forests, simulator forests and certificates computed for one case
    # are reused by the next, and a second invocation on the same
    # AMST_CACHE_DIR runs nothing; --no-cache recomputes everything (the
    # verdicts are byte-identical either way — that equality is itself
    # property-tested).
    cache = None
    if not args.no_cache:
        from .bench.runcache import RunCache

        cache = RunCache.from_env()

    failures = 0
    if not args.skip_oracle:
        for name in names:
            graph = GOLDEN_CASES[name].graph_fn()
            report = run_oracle(graph, cache=cache, jobs=args.jobs)
            status = "ok" if report.ok else "MISMATCH"
            print(f"oracle {name:<18s} {status}")
            if not report.ok:
                failures += 1
                print(report.format())

    diffs = check_golden(names, directory=args.golden_dir, jobs=args.jobs)
    drifted = {d.name for d in diffs}
    for name in names:
        status = "DRIFT" if name in drifted else "ok"
        print(f"golden {name:<18s} {status}")
    for d in diffs:
        failures += 1
        print(d)
    if cache is not None:
        s = cache.stats()
        print(f"run cache    : {s['hits']} hit(s) "
              f"({s['memory_hits']} memory, {s['disk_hits']} disk), "
              f"{s['misses']} miss(es), {s['evictions']} eviction(s), "
              f"{s['disk_writes']} disk write(s), "
              f"delta {s['delta_hits']}/{s['delta_misses']} hit/miss")
        if tel is not None:
            tel.record_runcache(cache)
    if tel is not None:
        tel.metrics.inc("verify.cases", len(names))
        tel.metrics.inc("verify.failures", failures)
        tel.summary = {"cases": names, "failures": failures}
    if failures:
        print(f"verify: {failures} failure(s)")
        return 1
    print(f"verify: {len(names)} case(s) ok "
          f"(oracle {'skipped' if args.skip_oracle else 'passed'}, "
          f"golden traces match)")
    return 0


def _cmd_scaleout(args: argparse.Namespace) -> int:
    with _telemetry_session(args, "scaleout") as tel:
        return _cmd_scaleout_body(args, tel)


def _cmd_scaleout_body(args: argparse.Namespace, tel) -> int:
    """Partitioned multi-card run with optional parallel phase 1."""
    from .fabric import run_fabric

    g = load(args.dataset, seed=args.seed, size=args.scale)
    cache = args.cache_vertices or default_cache_vertices(args.scale)
    cfg = AmstConfig.full(args.parallelism, cache_vertices=cache)
    if tel is not None:
        from .bench.runcache import config_fingerprint, graph_fingerprint

        tel.context = tel.context.with_(
            graph_fingerprint=graph_fingerprint(g),
            config_fingerprint=config_fingerprint(cfg),
        )
    fab = run_fabric(g, args.cards, cfg, partitioner=args.partitioner,
                     net_profile=args.net_profile, jobs=args.jobs)
    plan, net, forest = fab.plan, fab.network, fab.result
    if tel is not None:
        tel.record_output(fab.merge_output)
        tel.summary = {
            "dataset": args.dataset,
            "cards": plan.num_cards,
            "partitioner": plan.name,
            "net_profile": fab.profile.name,
            "cut_edges": plan.stats.cut_edges,
            "rounds": len(fab.rounds),
            "messages": net.total_messages,
            "message_bytes": net.total_bytes,
            "forest_edges": int(forest.num_edges),
            "total_weight": float(forest.total_weight),
        }
    exchange_s = net.reduce_seconds
    total_s = fab.local_seconds + exchange_s + fab.merge_seconds
    print(f"dataset      : {args.dataset} "
          f"(n={g.num_vertices:,}, m={g.num_edges:,})")
    print(f"cards        : {plan.num_cards} ({plan.name} partition, "
          f"jobs={args.jobs})")
    print(f"forest       : {forest.num_edges:,} edges, "
          f"weight {forest.total_weight:,.0f}, "
          f"{forest.num_components} component(s)")
    print(f"cut edges    : {plan.stats.cut_edges:,} "
          f"({100 * plan.stats.cut_fraction:.1f}% of edges)")
    print(f"fabric       : {len(fab.rounds)} round(s), "
          f"{net.total_messages:,} message(s), {net.total_bytes:,} bytes, "
          f"{fab.boundary_edges:,} boundary record(s)")
    print(f"network      : {fab.profile.name} — scatter "
          f"{net.scatter_seconds * 1e3:.3f} ms, reduce "
          f"{exchange_s * 1e3:.3f} ms")
    print(f"modelled time: local {fab.local_seconds * 1e3:.3f} ms + "
          f"exchange {exchange_s * 1e3:.3f} ms + "
          f"merge {fab.merge_seconds * 1e3:.3f} ms = {total_s * 1e3:.3f} ms")
    print(f"host phase 1 : {fab.host_phase1_seconds:.3f} s wall clock")
    print(f"energy       : {fab.energy_joules * 1e3:.3f} mJ")
    if args.validate:
        from .mst import kruskal, validate_mst

        validate_mst(g, forest, reference=kruskal(g))
        print("validation   : forest matches Kruskal (weight-exact)")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    with _telemetry_session(args, "update") as tel:
        return _cmd_update_body(args, tel)


def _cmd_update_body(args: argparse.Namespace, tel) -> int:
    """Incremental MST maintenance over a seeded update stream."""
    from .incremental import (
        IncrementalConfig,
        IncrementalMst,
        random_batches,
    )

    g = load(args.dataset, seed=args.seed, size=args.scale)
    cache = None
    if not args.no_cache:
        from .bench.runcache import RunCache

        cache = RunCache.from_env()
    engine = IncrementalMst(
        g,
        config=IncrementalConfig(
            fallback_fraction=args.fallback_fraction),
        cache=cache)
    if tel is not None:
        from .bench.runcache import graph_fingerprint

        tel.context = tel.context.with_(graph_fingerprint=graph_fingerprint(g))
    print(f"dataset      : {args.dataset} "
          f"(n={g.num_vertices:,}, m={g.num_edges:,})")
    print(f"stream       : {args.batches} batch(es) x "
          f"{args.batch_size} edit(s), update seed {args.update_seed}, "
          f"insert fraction {args.insert_fraction:.2f}")
    for i, batch in enumerate(random_batches(
            g, seed=args.update_seed, batches=args.batches,
            batch_size=args.batch_size,
            insert_fraction=args.insert_fraction)):
        if tel is not None:
            with tel.spans.span(f"batch:{i}", category="stage"):
                stats = engine.apply(batch)
        else:
            stats = engine.apply(batch)
        engine.check_invariants()
        how = ("cache hit" if stats.cache_hit
               else "fallback" if stats.fallback else "delta")
        print(f"batch {i:>4d}   : +{stats.inserts}/-{stats.deletes} "
              f"edge(s), {stats.edges_touched} touched, "
              f"{stats.swaps} swap(s), {stats.replacements} "
              f"replacement(s), {stats.seconds * 1e3:.2f} ms ({how})")
    if args.validate:
        engine.verify_against_oracle()
        print("validation   : forest byte-identical to Kruskal oracle")
    forest = engine.forest()
    totals = engine.totals
    print(f"forest       : {forest.num_edges:,} edges, "
          f"weight {forest.total_weight:,.0f}, "
          f"{forest.num_components} component(s)")
    print(f"delta stats  : {totals.edges_touched:,} edge(s) touched, "
          f"{totals.components_replayed:,} component op(s), "
          f"{totals.fallbacks} fallback(s), "
          f"{totals.cache_hits} delta-cache hit(s)")
    if cache is not None:
        s = cache.stats()
        print(f"run cache    : delta {s['delta_hits']}/"
              f"{s['delta_misses']} hit/miss, "
              f"{s['hits']} total hit(s)")
        if tel is not None:
            tel.record_runcache(cache)
    if tel is not None:
        tel.summary = {
            "dataset": args.dataset,
            "batches": args.batches,
            "batch_size": args.batch_size,
            "fallbacks": totals.fallbacks,
            "edges_touched": totals.edges_touched,
            "forest_edges": int(forest.num_edges),
            "total_weight": float(forest.total_weight),
        }
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from .obs import RunStore

    runs = RunStore(args.runs_dir).list_runs()
    if not runs:
        print(f"no runs recorded under {args.runs_dir}")
        return 0
    print(f"{'run id':<26s} {'started (UTC)':<21s} {'command':<9s} "
          f"{'metrics':>7s} {'spans':>6s} {'procs':>5s}")
    for data in runs:
        ctx = data.get("run", {})
        print(f"{ctx.get('run_id', '?'):<26s} "
              f"{ctx.get('started_at', '?'):<21s} "
              f"{ctx.get('command', '?'):<9s} "
              f"{len(data.get('metrics', {})):>7d} "
              f"{data.get('num_spans', 0):>6d} "
              f"{data.get('num_processes', 1):>5d}")
    return 0


def _histogram_summaries(manifest_path, data: dict) -> dict:
    """p50/p95/p99 per histogram from the run's ``metrics.json``.

    Tolerant by design: a missing/torn metrics file, an unknown files
    inventory or a malformed histogram snapshot each yield ``{}`` or
    skip the entry — ``runs show`` must render any manifest it can
    read, including ones from future schema revisions.
    """
    import json

    from .obs import Histogram

    name = (data.get("files") or {}).get("metrics_json", "metrics.json")
    metrics_path = manifest_path.parent / name
    if not metrics_path.is_file():
        return {}
    try:
        with open(metrics_path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    out = {}
    for hname, snap in sorted(
        (snapshot.get("histograms") or {}).items()
    ):
        try:
            quantiles = snap.get("quantiles")
            if quantiles is None:  # pre-quantile snapshot: estimate
                hist = Histogram(tuple(snap["buckets"]))
                hist.merge(snap)
                if hist.count == 0:
                    continue
                quantiles = hist.summary_quantiles()
            out[hname] = {
                "count": snap.get("count", 0),
                "sum": snap.get("sum", 0.0),
                **{k: quantiles[k] for k in ("p50", "p95", "p99")},
            }
        except (KeyError, TypeError, ValueError):
            continue
    return out


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import json

    from .obs import RunStore

    store = RunStore(args.runs_dir)
    path = store.resolve(args.ref)
    data = store.load_manifest(args.ref)
    histograms = _histogram_summaries(path, data)
    if histograms:
        data["histograms"] = histograms
    print(json.dumps(data, indent=2))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    """Flag metric regressions between two recorded runs.

    Exit 1 when any shared metric moved by at least ``--threshold``
    (relative), which is what the CI regression gate rides on.  With
    ``--significance``, each side is a comma-separated list of run
    references (one per seed) and the verdict comes from paired
    Wilcoxon/sign tests instead of a single-run delta — a single seed
    per side is demoted to "insufficient seeds", never a hard verdict.
    """
    from .obs import RunStore, compare_json_files

    store = RunStore(args.runs_dir)
    base_refs = [r for r in args.base.split(",") if r]
    new_refs = [r for r in args.new.split(",") if r]
    if args.significance:
        return _runs_diff_significance(store, base_refs, new_refs, args)
    if len(base_refs) > 1 or len(new_refs) > 1:
        print("multiple runs per side require --significance")
        return 2
    base = store.resolve(args.base)
    new = store.resolve(args.new)
    skip = () if args.all_metrics else None
    kwargs = {"threshold": args.threshold}
    if skip is not None:
        kwargs["skip_prefixes"] = skip
    report = compare_json_files(base, new, **kwargs)
    print(f"base: {base}")
    print(f"new : {new}")
    print(report.format())
    return 0 if report.ok else 1


def _runs_diff_significance(
    store, base_refs: list[str], new_refs: list[str],
    args: argparse.Namespace,
) -> int:
    """Multi-seed significance-tested diff (docs/ANALYTICS.md)."""
    from .bench.analysis import MIN_SEEDS, compare_groups
    from .bench.analysis.records import record_from_manifest
    from .obs import DEFAULT_SKIP_PREFIXES

    def _load(refs):
        return [
            record_from_manifest(store.load_manifest(ref), source=ref)
            for ref in refs
        ]

    base, new = _load(base_refs), _load(new_refs)
    skip = () if args.all_metrics else DEFAULT_SKIP_PREFIXES
    comps = compare_groups(base, new, skip_prefixes=skip,
                           alpha=args.alpha)
    n_pairs = comps[0].n_pairs if comps else min(len(base), len(new))
    print(f"base: {len(base)} run(s); new: {len(new)} run(s); "
          f"{n_pairs} pair(s)")
    if skip:
        print(f"skipped namespaces: "
              f"{', '.join(p + '*' for p in skip)}")
    if n_pairs < MIN_SEEDS:
        print(f"insufficient seeds ({n_pairs} pair(s), need "
              f">= {MIN_SEEDS}): no verdict — record more seeds per "
              f"side; deltas below are informational only")
        for c in sorted(comps, key=lambda c: -abs(c.rel_delta))[:10]:
            pct = ("new" if c.rel_delta == float("inf")
                   else f"{100 * c.rel_delta:+.1f}%")
            print(f"  ?? {c.metric}: {c.base_mean!r} -> "
                  f"{c.new_mean!r} ({pct})")
        return 0
    flagged = [
        c for c in comps
        if c.verdict == "significant"
        and (c.rel_delta == float("inf")
             or abs(c.rel_delta) >= args.threshold)
    ]
    print(f"compared {len(comps)} metric(s) at alpha {args.alpha:g}, "
          f"threshold {100 * args.threshold:.0f}%: "
          f"{len(flagged)} significant")
    for c in flagged:
        pct = ("new" if c.rel_delta == float("inf")
               else f"{100 * c.rel_delta:+.1f}%")
        print(f"  !! {c.metric}: {c.base_mean!r} -> {c.new_mean!r} "
              f"({pct}, wilcoxon p={c.wilcoxon.p_value:.4f}, "
              f"sign p={c.sign.p_value:.4f}, n={c.n_pairs})")
    return 1 if flagged else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render (or verify) the experiment report (docs/ANALYTICS.md)."""
    from pathlib import Path

    from .bench.analysis import (
        detect_trends,
        load_bench_history,
        load_bench_records,
        load_run_records,
        render_report,
        render_trend_markdown,
    )

    records = []
    if args.runs_dir:
        records.extend(load_run_records(args.runs_dir))
    if args.bench_dir:
        records.extend(load_bench_records(args.bench_dir))
    markdown = render_report(records, fmt="md", baseline=args.baseline,
                             alpha=args.alpha)
    latex = render_report(records, fmt="latex", baseline=args.baseline,
                          alpha=args.alpha)
    if args.trend and not args.check:
        # git history grows every commit, so the trend section can
        # never be byte-stable — goldens stay trend-free by design
        trends = detect_trends(
            load_bench_history(args.bench_dir or "benchmarks"),
            threshold=args.trend_threshold)
        markdown += "\n" + render_trend_markdown(trends) + "\n"

    if args.check:
        golden = Path(args.check)
        failures = []
        for label, rendered, path in (
            ("markdown", markdown, golden),
            ("latex", latex, golden.with_suffix(".tex")),
        ):
            if not path.is_file():
                if label == "markdown":
                    print(f"golden report missing: {path}")
                    return 1
                continue  # LaTeX golden is optional
            blessed = path.read_text(encoding="utf-8")
            if rendered != blessed:
                failures.append((label, path, blessed, rendered))
        for label, path, blessed, rendered in failures:
            old, new = blessed.splitlines(), rendered.splitlines()
            line = next(
                (i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                min(len(old), len(new)))
            print(f"{label} report drifted from {path} "
                  f"(first difference at line {line + 1}):")
            if line < len(old):
                print(f"  golden  : {old[line]}")
            if line < len(new):
                print(f"  rendered: {new[line]}")
        if failures:
            print("re-bless with: amst report --out <golden.md> "
                  "--tex-out <golden.tex>")
            return 1
        print(f"report matches {golden} (byte-identical)")
        return 0

    wrote = False
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(markdown, encoding="utf-8")
        print(f"wrote {args.out}")
        wrote = True
    if args.tex_out:
        Path(args.tex_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.tex_out).write_text(latex, encoding="utf-8")
        print(f"wrote {args.tex_out}")
        wrote = True
    if not wrote:
        print(markdown if args.format == "md" else latex, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the long-lived daemon (docs/SERVING.md)."""
    from .serve import AmstDaemon, DaemonConfig

    daemon = AmstDaemon(DaemonConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_depth=args.queue_depth,
        per_client_limit=args.client_limit,
        runs_dir=args.runs_dir,
        allow_fault_injection=args.allow_fault_injection,
    ))
    daemon.start()
    print(f"amst-serve   : listening on {daemon.url} "
          f"(protocol {daemon.health()['protocol']})")
    print(f"workers      : {args.workers} "
          f"(queue depth {args.queue_depth}, "
          f"per-client limit {args.client_limit})")
    if args.runs_dir:
        print(f"manifests    : per-job run manifests under "
              f"{args.runs_dir}/")
    if args.allow_fault_injection:
        print("fault hooks  : ENABLED (test harness mode)")
    daemon.serve_forever()
    print("amst-serve   : shut down")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """One request against a running daemon; prints the JSON response."""
    import json

    from .serve import ServeClient, ServeClientError

    c = ServeClient(args.url, timeout=args.timeout)
    try:
        if args.client_command == "health":
            out = c.health()
        elif args.client_command == "publish":
            out = c.publish(dataset=args.dataset, seed=args.seed,
                            scale=args.scale, name=args.name)
        elif args.client_command == "graphs":
            out = {"graphs": c.graphs()}
        elif args.client_command == "evict":
            out = c.evict(args.fingerprint)
        elif args.client_command == "submit":
            params = json.loads(args.params) if args.params else {}
            out = c.submit(kind=args.kind, graph=args.graph,
                           client=args.client_id,
                           priority=args.priority, params=params)
            if args.wait:
                view = c.wait(out["id"], timeout_s=args.timeout)
                out = (c.result(out["id"]) if view["state"] == "done"
                       else view)
        elif args.client_command == "status":
            out = c.status(args.job)
        elif args.client_command == "result":
            out = c.result(args.job)
        elif args.client_command == "wait":
            out = c.wait(args.job, timeout_s=args.timeout)
        elif args.client_command == "jobs":
            out = {"jobs": c.jobs()}
        elif args.client_command == "metrics":
            print(c.metrics_text(), end="")
            return 0
        elif args.client_command == "shutdown":
            out = c.shutdown(drain=not args.no_drain,
                             timeout_s=args.timeout)
        else:  # pragma: no cover - argparse guards choices
            raise SystemExit(2)
    except ServeClientError as exc:
        print(json.dumps(exc.body, indent=2))
        return 1
    print(json.dumps(out, indent=2))
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(bench.table1_datasets(size=args.scale, seed=args.seed).to_text())
    return 0


def _cmd_resources(_args: argparse.Namespace) -> int:
    print(bench.fig16_resource_utilization().to_text())
    return 0


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--telemetry", action="store_true",
                   help="record run-scoped metrics + trace; write "
                        "<runs-dir>/<run-id>/ (docs/OBSERVABILITY.md)")
    p.add_argument("--runs-dir", default="runs",
                   help="run-manifest store root (default runs/)")
    p.add_argument("--run-id", default=None,
                   help="explicit run id (default: UTC stamp + random)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="amst",
        description="AMST FPGA MST accelerator — functional reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run the accelerator on one dataset")
    pr.add_argument("--dataset", default="RC",
                    help="Table I tag (EF/GD/CD/CL/RC/RP/RT/UR/CF/UU)")
    pr.add_argument("--parallelism", type=int, default=16)
    pr.add_argument("--cache-vertices", type=int, default=None)
    pr.add_argument("--scale", type=float, default=1.0)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--jobs", type=int, default=1,
                    help="worker processes: > 1 runs the simulator and "
                         "the Kruskal reference as pool tasks")
    pr.add_argument("--validate", action="store_true",
                    help="check the forest against Kruskal")
    pr.add_argument("--self-check", action="store_true",
                    help="validate simulator invariants every iteration")
    pr.add_argument("--profile-host", action="store_true",
                    help="print host wall-clock per stage/subsystem/kernel")
    _add_telemetry_flags(pr)
    pr.set_defaults(func=_cmd_run)

    pb = sub.add_parser("bench", help="reproduce a table/figure")
    pb.add_argument("--experiment", default="all",
                    choices=["all", *EXPERIMENTS])
    pb.add_argument("--scale", type=float, default=1.0)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = run inline)")
    pb.set_defaults(func=_cmd_bench)

    pv = sub.add_parser(
        "verify", help="differential oracle + golden-trace regression"
    )
    pv.add_argument("--case", action="append", default=None,
                    metavar="NAME",
                    help="golden case to verify (repeatable; default all)")
    pv.add_argument("--update-golden", action="store_true",
                    help="re-bless the golden trace snapshots")
    pv.add_argument("--skip-oracle", action="store_true",
                    help="only compare golden traces")
    pv.add_argument("--golden-dir", default=None,
                    help="golden directory (default tests/golden, "
                         "or $AMST_GOLDEN_DIR)")
    pv.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = run inline)")
    pv.add_argument("--no-cache", action="store_true",
                    help="disable the content-addressed run cache")
    _add_telemetry_flags(pv)
    pv.set_defaults(func=_cmd_verify)

    pi = sub.add_parser(
        "update",
        help="incremental MST under batched edge updates "
             "(docs/INCREMENTAL.md)")
    pi.add_argument("--dataset", default="RC",
                    help="Table I tag (EF/GD/CD/CL/RC/RP/RT/UR/CF/UU)")
    pi.add_argument("--scale", type=float, default=1.0)
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--batches", type=int, default=10,
                    help="number of update batches to stream")
    pi.add_argument("--batch-size", type=int, default=8,
                    help="edits per batch")
    pi.add_argument("--update-seed", type=int, default=7,
                    help="seed of the update stream (independent of "
                         "the dataset seed)")
    pi.add_argument("--insert-fraction", type=float, default=0.5,
                    help="probability an edit is an insertion")
    pi.add_argument("--fallback-fraction", type=float, default=0.25,
                    help="fall back to a full recompute when a batch "
                         "or its touched region exceeds this fraction "
                         "of the live edges")
    pi.add_argument("--no-cache", action="store_true",
                    help="disable the delta/run cache")
    pi.add_argument("--validate", action="store_true",
                    help="check the final forest against Kruskal")
    _add_telemetry_flags(pi)
    pi.set_defaults(func=_cmd_update)

    pd = sub.add_parser("datasets", help="print the Table I suite")
    pd.add_argument("--scale", type=float, default=1.0)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=_cmd_datasets)

    ps = sub.add_parser("resources", help="print the Fig 16 model")
    ps.set_defaults(func=_cmd_resources)

    pw = sub.add_parser("sweep", help="design-space sweeps (DESIGN.md)")
    pw.add_argument("--sweep", default="all", choices=["all", *SWEEPS])
    pw.add_argument("--dataset", default="CL")
    pw.add_argument("--cache-vertices", type=int, default=None)
    pw.add_argument("--scale", type=float, default=1.0)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = run inline)")
    _add_telemetry_flags(pw)
    pw.set_defaults(func=_cmd_sweep)

    po = sub.add_parser(
        "scaleout", help="partitioned multi-card MST (DESIGN.md)"
    )
    po.add_argument("--dataset", default="CF",
                    help="Table I tag (EF/GD/CD/CL/RC/RP/RT/UR/CF/UU)")
    po.add_argument("--cards", type=int, default=4)
    po.add_argument("--partitioner", default="range",
                    choices=list(list_partitioners()),
                    help="fabric partitioner (docs/SCALE_OUT.md)")
    po.add_argument("--net-profile", default="pcie3",
                    choices=list(list_net_profiles()),
                    help="inter-card network model for the modelled "
                         "communication time")
    po.add_argument("--parallelism", type=int, default=16)
    po.add_argument("--cache-vertices", type=int, default=None)
    po.add_argument("--scale", type=float, default=1.0)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--jobs", type=int, default=1,
                    help="host processes for the per-card local runs "
                         "(1 = run serially)")
    po.add_argument("--validate", action="store_true",
                    help="check the forest against Kruskal")
    _add_telemetry_flags(po)
    po.set_defaults(func=_cmd_scaleout)

    pe = sub.add_parser(
        "serve", help="long-lived serving daemon (docs/SERVING.md)"
    )
    pe.add_argument("--host", default="127.0.0.1")
    pe.add_argument("--port", type=int, default=8787,
                    help="listen port (0 = ephemeral)")
    pe.add_argument("--workers", type=int, default=2,
                    help="job worker threads")
    pe.add_argument("--queue-depth", type=int, default=64,
                    help="max admitted (non-terminal) jobs")
    pe.add_argument("--client-limit", type=int, default=2,
                    help="max concurrently running jobs per client id")
    pe.add_argument("--runs-dir", default=None,
                    help="record per-job run manifests under this dir")
    pe.add_argument("--allow-fault-injection", action="store_true",
                    help="accept test-only fault params "
                         "(crash/sleep hooks; never in production)")
    pe.set_defaults(func=_cmd_serve)

    pc = sub.add_parser(
        "client", help="talk to a running daemon (docs/SERVING.md)"
    )
    pc.add_argument("--url", default="http://127.0.0.1:8787")
    pc.add_argument("--timeout", type=float, default=60.0,
                    help="request / wait timeout in seconds")
    csub = pc.add_subparsers(dest="client_command", required=True)
    csub.add_parser("health", help="daemon liveness + queue depth")
    cp = csub.add_parser("publish", help="publish a Table I dataset")
    cp.add_argument("--dataset", required=True,
                    help="Table I tag (EF/GD/CD/CL/RC/RP/RT/UR/CF/UU)")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--scale", type=float, default=1.0)
    cp.add_argument("--name", default="")
    csub.add_parser("graphs", help="list published graphs")
    ce = csub.add_parser("evict", help="evict a published graph")
    ce.add_argument("fingerprint")
    cs = csub.add_parser("submit", help="submit an async job")
    cs.add_argument("--kind", default="run",
                    choices=["run", "verify", "sweep", "update"])
    cs.add_argument("--graph", required=True,
                    help="published graph fingerprint")
    cs.add_argument("--client-id", default="cli")
    cs.add_argument("--priority", type=int, default=0)
    cs.add_argument("--params", default=None,
                    help='job params as JSON, e.g. \'{"parallelism": 8}\'')
    cs.add_argument("--wait", action="store_true",
                    help="block until terminal; print the result")
    cst = csub.add_parser("status", help="one job's state")
    cst.add_argument("job")
    cr = csub.add_parser("result", help="one finished job's result")
    cr.add_argument("job")
    cw = csub.add_parser("wait", help="long-poll until terminal")
    cw.add_argument("job")
    csub.add_parser("jobs", help="list all jobs")
    csub.add_parser("metrics", help="Prometheus text exposition")
    csh = csub.add_parser("shutdown", help="graceful daemon shutdown")
    csh.add_argument("--no-drain", action="store_true",
                     help="cancel queued jobs instead of draining")
    pc.set_defaults(func=_cmd_client)

    pu = sub.add_parser("runs", help="inspect recorded telemetry runs")
    usub = pu.add_subparsers(dest="runs_command", required=True)
    ul = usub.add_parser("list", help="list recorded runs")
    ul.add_argument("--runs-dir", default="runs")
    ul.set_defaults(func=_cmd_runs_list)
    ush = usub.add_parser("show", help="print one run's manifest")
    ush.add_argument("ref", help="run id, 'latest', or a manifest path")
    ush.add_argument("--runs-dir", default="runs")
    ush.set_defaults(func=_cmd_runs_show)
    ud = usub.add_parser(
        "diff", help="flag metric regressions between two runs"
    )
    ud.add_argument("base", help="run id, 'latest', or a manifest path")
    ud.add_argument("new", nargs="?", default="latest",
                    help="run id, 'latest' (default), or a manifest path")
    ud.add_argument("--runs-dir", default="runs")
    ud.add_argument("--threshold", type=float, default=0.10,
                    help="relative change that counts as a regression "
                         "(default 0.10)")
    ud.add_argument("--all-metrics", action="store_true",
                    help="also compare the nondeterministic host./"
                         "runcache./shm. namespaces")
    ud.add_argument("--significance", action="store_true",
                    help="treat base/new as comma-separated multi-seed "
                         "run lists and verdict via paired Wilcoxon + "
                         "sign tests (needs >= 2 seeds per side)")
    ud.add_argument("--alpha", type=float, default=0.05,
                    help="significance level for --significance "
                         "(default 0.05)")
    ud.set_defaults(func=_cmd_runs_diff)

    pp = sub.add_parser(
        "report",
        help="render the experiment report from recorded manifests",
        description="Render the paper's exhibit tables (Table I "
                    "datasets, Fig 10 cache, Fig 13 ablation, Fig 14 "
                    "scaling) as deterministic markdown/LaTeX from "
                    "recorded run manifests and BENCH_*.json records "
                    "(docs/ANALYTICS.md).",
    )
    pp.add_argument("--runs-dir", default="runs",
                    help="run-manifest store (default runs/); pass '' "
                         "to skip")
    pp.add_argument("--bench-dir", default="benchmarks",
                    help="directory holding BENCH_*.json (default "
                         "benchmarks/); pass '' to skip")
    pp.add_argument("--baseline", default=None,
                    help="baseline group label (exact or substring) "
                         "for the significance-tested comparison table")
    pp.add_argument("--format", choices=("md", "latex"), default="md",
                    help="stdout format when no --out/--tex-out given")
    pp.add_argument("--out", default=None,
                    help="write the markdown report here")
    pp.add_argument("--tex-out", default=None,
                    help="write the LaTeX tables here")
    pp.add_argument("--check", default=None, metavar="GOLDEN",
                    help="byte-compare against a committed golden "
                         "markdown report (and its sibling .tex if "
                         "present); exit 1 on drift")
    pp.add_argument("--trend", action="store_true",
                    help="append the git-history trendline section "
                         "(excluded from --check goldens by design)")
    pp.add_argument("--trend-threshold", type=float,
                    default=0.10,
                    help="cumulative monotone drift that gets flagged "
                         "(default 0.10)")
    pp.add_argument("--alpha", type=float, default=0.05,
                    help="significance level for comparison tables "
                         "(default 0.05)")
    pp.set_defaults(func=_cmd_report)

    pt = sub.add_parser("trace", help="per-iteration execution profile")
    pt.add_argument("--dataset", default="RC")
    pt.add_argument("--parallelism", type=int, default=16)
    pt.add_argument("--cache-vertices", type=int, default=None)
    pt.add_argument("--scale", type=float, default=1.0)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--csv", default=None, help="write trace rows to CSV")
    pt.add_argument("--json", default=None, help="write trace to JSON")
    pt.set_defaults(func=_cmd_trace)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
