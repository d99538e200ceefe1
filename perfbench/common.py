"""Shared pieces of the benchmark: metric tables, timing and result output.

Every workload prints every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) listed here; ``BENCHMARK.json`` mirrors
these tables and the smoke test keeps the two in step.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

#: (name, unit) of each end-to-end metric — host time, never modelled
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("medges_per_s", "Medges/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
)

KERNELS = ("fm_scan", "lru_replay", "resolve_roots", "cm_commit",
           "rape_mirrors", "kruskal_union", "pointer_jump", "find_many")

#: (name, unit) of each per-layer metric of the traced run
PER_LAYER = (
    ("graph.preprocess.s", "s"),
    ("graph.shm.publish.s", "s"),
    ("core.amst_run.s", "s"),
    ("core.amst_run.self_s", "s"),
    ("core.finding.s", "s"),
    ("core.finding.self_s", "s"),
    ("core.rape.s", "s"),
    ("core.compressing.s", "s"),
    ("core.resolve_roots.s", "s"),
    ("core.resolve_roots.calls", "count"),
    ("core.build_report.s", "s"),
    ("core.iterations", "count"),
    ("core.model_mcycles", "Mcycles"),
    ("memory.hash_cache.s", "s"),
    ("memory.hash_cache.calls", "count"),
    ("memory.direct_cache.s", "s"),
    ("memory.direct_cache.calls", "count"),
    ("memory.lru_cache.s", "s"),
    ("memory.lru_cache.calls", "count"),
    ("memory.hbm.s", "s"),
    ("memory.hbm.calls", "count"),
    ("memory.cache_hits", "count"),
    ("memory.cache_misses", "count"),
    ("memory.hbm_blocks", "count"),
    *((f"kernels.{k}.{x}", u) for k in KERNELS
      for x, u in (("s", "s"), ("calls", "count"))),
    ("mst.kruskal.s", "s"),
    ("mst.boruvka.s", "s"),
    ("mst.prim.s", "s"),
    ("mst.filter_kruskal.s", "s"),
    ("mst.certify.s", "s"),
    ("runcache.get.s", "s"),
    ("runcache.put.s", "s"),
    ("runcache.graph_fingerprint.s", "s"),
    ("runcache.hits", "count"),
    ("runcache.misses", "count"),
    ("runcache.hit_ratio", "ratio"),
    ("runcache.disk_writes", "count"),
    ("runcache.disk_mb_written", "MB"),
    ("fabric.run.s", "s"),
    ("fabric.run.self_s", "s"),
    ("fabric.plan_edges.s", "s"),
    ("fabric.local.s", "s"),
    ("fabric.merge_amst.s", "s"),
    ("fabric.model_rounds.s", "s"),
    ("fabric.cut_fraction", "ratio"),
    ("fabric.bytes", "bytes"),
    ("fabric.model_speedup", "x"),
    ("serve.job_ms.run_hit", "ms"),
    ("serve.job_ms.run_miss", "ms"),
    ("serve.job_ms.update", "ms"),
    ("serve.server_job_ms.p50", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.registry.publish.s", "s"),
    ("incremental.apply.s", "s"),
    ("incremental.check_invariants.s", "s"),
    ("incremental.forest.s", "s"),
    ("incremental.fallbacks", "count"),
    ("incremental.edges_touched", "count"),
    ("unattributed.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.max_child_excess", "ratio"),
)

#: median of this many input builds is the reported set-up time
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # failure descriptions
    model: dict = field(default_factory=dict)  # per-graph modelled stats

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record a failure unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def now() -> float:
    return time.perf_counter()


def timed_median(fn, repeats: int = SETUP_REPEATS):
    """Run ``fn`` ``repeats`` times; return (median seconds, last value)."""
    times, value = [], None
    for _ in range(repeats):
        t0 = now()
        value = fn()
        times.append(now() - t0)
    return statistics.median(times), value


def p50(values) -> float:
    return statistics.median(values)


def p95(values) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def peak_rss_mb(extra_kb: float = 0.0) -> float:
    """Max RSS of this process, its waited-for children and ``extra_kb``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids, extra_kb) / 1024.0


def vm_hwm_kb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    return 0.0


def shm_segments() -> set[str]:
    """The program's shared-memory segments currently in /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("amst_")}
    except FileNotFoundError:
        return set()


def model_stats(out) -> dict:
    """Modelled statistics of one ``AmstOutput`` (repeat exactly)."""
    s = out.state
    hits = s.parent_cache.stats.hits + s.minedge_cache.stats.hits
    misses = s.parent_cache.stats.misses + s.minedge_cache.stats.misses
    return {
        "cycles": float(out.report.total_cycles),
        "hbm_blocks": int(out.report.dram_blocks),
        "cache_hits": int(hits),
        "cache_misses": int(misses),
        "iterations": int(out.report.num_iterations),
    }


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts.

    A descendant whose parent exits first (the resource tracker of the
    serve daemon, say) is then re-parented here, so ``reap_children``
    can wait for it instead of leaving it running after the benchmark.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            kids.append(int(entry))
    return kids


def _wait_children(skip: set, grace_s: float) -> None:
    """Wait for every child not in ``skip``; kill those past ``grace_s``."""
    deadline = now() + grace_s
    while True:
        kids = [pid for pid in _children() if pid not in skip]
        if not kids:
            return
        for pid in kids:
            if now() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.01)


def reap_children(grace_s: float = 10.0) -> None:
    """Stop and wait for every process this run started.

    ``multiprocessing`` starts a resource-tracker process on the first
    shared-memory segment and leaves it to exit on its own after this
    process has gone.  It is stopped here, after the other children,
    because forked children hold its pipe open too.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    _wait_children({getattr(tracker, "_pid", None)}, grace_s)
    try:
        tracker._stop()
    except (AttributeError, OSError):
        pass
    _wait_children(set(), grace_s)


def scratch_dir(root: str) -> str:
    """A per-process scratch directory inside the checkout."""
    path = os.path.join(root, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def emit(outcome: Outcome, trace: bool) -> None:
    """Print the diagnostics and the final one-line JSON result."""
    for note in outcome.notes[:20]:
        print(f"FAILED: {note}", file=sys.stderr)
    if outcome.model:
        print("model " + json.dumps(outcome.model, sort_keys=True))
    table = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in table
    }
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
