"""Parent-versus-change record of one perfbench workload.

``perfbench/run.py`` measures one workload on one seed and prints one
JSON line.  This script runs it on two checkouts — the one it lives in
(the change) and ``--parent`` — for every seed in ``--seeds``, the two
sides alternating which goes first, for the ``run_seconds`` that
``BENCHMARK.json`` sets, and records the end-to-end metrics
in ``benchmarks/BENCH_perfbench.json`` through ``write_bench_json``::

    python benchmarks/bench_perfbench.py --workload serve-session \\
        --seeds 21-30 --parent <checkout of the parent commit>

Per side the record keeps each metric's median with Q1/Q3, the values
by seed, the attempted and failed operation counts and the git SHA;
per metric it counts the pairs each side won (by the ``better``
direction ``BENCHMARK.json`` declares) and runs a paired two-sided
Wilcoxon signed-rank test over the seeds
(``repro.bench.analysis.stats.wilcoxon_signed_rank``).  A workload
that prints a ``model `` line also records whether the two sides'
lines were equal in every pair.  ``--trace-seed`` adds one ``--trace 1`` pair and keeps
its non-zero per-layer metrics.  Records of other workloads already in
the file are kept, so one file holds every workload's latest pair set.
Nothing under ``perfbench/`` is imported or changed: each run is a
subprocess in its own checkout, the way ``BENCHMARK.json``'s command
runs it.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")


def parse_seeds(text):
    """``"21-30"`` or ``"1,4,9"`` (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_sha(checkout):
    """``(HEAD sha, number of changed paths)`` of a checkout, or ``("", 0)``
    when it is not a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True, timeout=30)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "", 0
    status = git("status", "--porcelain", "--untracked-files=no")
    return head.stdout.strip(), len(status.stdout.splitlines())


def run_once(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run; its result line and ``model `` line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    model = next((ln for ln in lines if ln.startswith("model ")), None)
    return json.loads(lines[-1]), model


def quartiles(values):
    """``(q1, median, q3)``, linear interpolation between order stats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def benchmark_spec():
    """This checkout's BENCHMARK.json: ``({metric: "lower" | "higher"},
    run seconds)``, the run length every pair uses."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["better"] for m in spec["end_to_end"]},
            spec["run_seconds"])


def summarize(checkout, runs, metrics):
    sha, changed = git_sha(checkout)
    values = {m: [r["metrics"][m]["value"] for r in runs] for m in metrics}
    medians = {}
    for m, vals in values.items():
        q1, med, q3 = quartiles(vals)
        medians[m] = {"median": med, "q1": q1, "q3": q3}
    return {
        "git_sha": sha,
        "uncommitted_paths": changed,
        "medians": medians,
        "values": values,
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": [r["correct"] for r in runs],
    }


def wins(parent_runs, change_runs, metrics):
    """Per metric, the pairs each side measured better in (and ties)."""
    out = {}
    for m, better in metrics.items():
        tally = {"change": 0, "parent": 0, "tie": 0}
        for p, c in zip(parent_runs, change_runs):
            pv, cv = p["metrics"][m]["value"], c["metrics"][m]["value"]
            if pv == cv:
                tally["tie"] += 1
            elif (cv < pv) == (better == "lower"):
                tally["change"] += 1
            else:
                tally["parent"] += 1
        out[m] = tally
    return out


def wilcoxon(parent_runs, change_runs, metrics):
    """Per metric, the paired Wilcoxon signed-rank test over the seeds
    (parent minus change), as ``SignificanceResult.as_dict()``."""
    from repro.bench.analysis.stats import wilcoxon_signed_rank

    return {m: wilcoxon_signed_rank(
        [r["metrics"][m]["value"] for r in parent_runs],
        [r["metrics"][m]["value"] for r in change_runs]).as_dict()
        for m in metrics}


def main(argv=None):
    import argparse

    from repro.bench.benchio import write_bench_json

    metrics, seconds = benchmark_spec()
    ap = argparse.ArgumentParser(
        description="alternating parent/change pairs of one perfbench "
                    "workload, recorded as BENCH_perfbench.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="e.g. 21-30 or 3,5,8")
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also run one --trace 1 pair on this seed")
    ap.add_argument("--out", default=os.path.join(HERE,
                                                  "BENCH_perfbench.json"))
    args = ap.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = {side: [] for side in SIDES}
    models_equal = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        models = {}
        for side in order:
            result, models[side] = run_once(
                checkouts[side], args.workload, seed, seconds, 0)
            runs[side].append(result)
            shown = {m: round(result["metrics"][m]["value"], 4)
                     for m in metrics}
            print(f"seed {seed} {side:>6}: failed {result['failed']} "
                  f"of {result['attempted']} {shown}", flush=True)
        if models["parent"] is not None or models["change"] is not None:
            models_equal.append(models["parent"] == models["change"])

    record = {
        "seconds": seconds,
        "seeds": args.seeds,
        "order": "alternating; the parent runs first on even pairs",
        "sides": {side: summarize(checkouts[side], runs[side], metrics)
                  for side in SIDES},
        "wins": wins(runs["parent"], runs["change"], metrics),
        "wilcoxon": wilcoxon(runs["parent"], runs["change"], metrics),
    }
    if models_equal:
        record["model_lines_identical"] = all(models_equal)
    if args.trace_seed is not None:
        record["traced"] = {"seed": args.trace_seed}
        for side in SIDES:
            result, _ = run_once(checkouts[side], args.workload,
                                 args.trace_seed, seconds, 1)
            record["traced"][side] = {
                name: m["value"] for name, m in result["metrics"].items()
                if m["value"]}
            record["traced"][f"{side}_failed"] = result["failed"]

    doc = {"benchmark": "perfbench", "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc["workloads"] = json.load(fh).get("workloads", {})
    doc["workloads"][args.workload] = record
    doc["host"] = {"cpu_count": os.cpu_count(),
                   "platform": platform.platform(),
                   "python": platform.python_version()}
    write_bench_json(args.out, doc)
    for m, tally in record["wins"].items():
        meds = {side: record["sides"][side]["medians"][m]["median"]
                for side in SIDES}
        print(f"{m}: parent {meds['parent']:.4g} -> change "
              f"{meds['change']:.4g}; pairs won {tally}; Wilcoxon "
              f"p={record['wilcoxon'][m]['p_value']:.3g}", flush=True)
    print(f"wrote {args.out}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
