"""verify: ``amst verify``'s differential oracle, cold and then warm.

``run_oracle`` with the default references and configurations and
``certify=True`` on RC and CF.  The cold pass starts from an empty
disk-backed ``RunCache``; each warm pass opens a *new* ``RunCache`` on
the same directory, so it is served by disk hits.  The same cache
layer writes in one pass and reads in the other.  Cold time is
dominated by the ``lru-cache`` oracle configuration and the reference
MSTs plus the certificate, so this is the workload that shows LRU and
``mst`` gains, which suite-run cannot.
"""

from __future__ import annotations

import os
import shutil

from repro.bench.datasets import load
from repro.bench.runcache import RunCache
from repro.verify import run_oracle

from common import Outcome, now, p50, p95, timed_median

#: (dataset, size): lowered from 1.0 so that a cold pass (≈5 s on a
#: 2-CPU host) fits a run several times.  One cold pass per run swung by
#: 30 % between runs on a shared host; the median of three does not.
GRAPHS = (("RC", 0.5), ("CF", 0.125))
#: cold-plus-warm cycles per run, at least; more while time is left
MIN_CYCLES = 3
#: warm passes that follow each cold pass
WARM_PER_CYCLE = 6

EXPECTED_LAYERS = ("memory.lru_cache", "kernels.lru_replay", "mst.kruskal",
                   "mst.certify", "runcache.put", "runcache.get")


def _pass(graphs, cache_dir: str, out: Outcome) -> float:
    """One oracle call per graph on a fresh ``RunCache``; host seconds."""
    cache = RunCache(disk_dir=cache_dir)
    total, reports = 0.0, []
    for key, g in graphs.items():
        t0 = now()
        reports.append((key, run_oracle(g, certify=True, cache=cache)))
        total += now() - t0
    for key, report in reports:
        out.check(report.ok, f"{key}: oracle mismatch\n{report.format()}")
    return total


def _disk_usage(path: str) -> tuple[int, int]:
    files = [os.path.join(path, f) for f in os.listdir(path)]
    return len(files), sum(os.path.getsize(f) for f in files)


def run(ctx) -> Outcome:
    out = Outcome()

    def build():
        return {key: load(key, seed=ctx.seed, size=size * ctx.size)
                for key, size in GRAPHS}

    build_s, graphs = timed_median(build)
    edges = sum(g.num_edges for g in graphs.values())
    cache_dir = os.path.join(ctx.tmp, "runcache")

    def cycle(warm_passes: int):
        """Cold pass on an empty directory, then ``warm_passes`` warm."""
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold = _pass(graphs, cache_dir, out)
        files, size = _disk_usage(cache_dir)
        warm = [_pass(graphs, cache_dir, out) for _ in range(warm_passes)]
        return cold, warm, files, size

    if ctx.rec is None:
        colds, warms, start = [], [], now()
        while True:
            t0 = now()
            cold, warm, _, _ = cycle(WARM_PER_CYCLE)
            colds.append(cold)
            warms.extend(warm)
            if len(colds) >= MIN_CYCLES \
                    and now() - start + (now() - t0) / 2 > ctx.seconds:
                break  # start another cycle only if half of it fits
        out.metrics.update({
            "setup_s": ctx.import_s + build_s,
            "medges_per_s": edges / p50(colds) / 1e6,
            "p50_ms": p50(warms) * 1e3,
            "p95_ms": p95(warms) * 1e3,
        })
        return out

    cold, warm, _, _ = cycle(1)
    with ctx.rec.root():
        cold_t, warm_t, files, size = cycle(1)
    out.metrics.update({
        "trace.overhead_s": cold_t + warm_t[0] - cold - warm[0],
        "runcache.disk_writes": files,
        "runcache.disk_mb_written": size / 1e6,
    })
    return out
