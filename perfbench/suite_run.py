"""suite-run: a cold ``amst run`` on every Table I analog.

Exactly what ``amst run`` does per dataset: a fresh
``Amst(AmstConfig.full(16, cache_vertices=default_cache_vertices(size)))``
on each of the ten graphs.  The inputs span cache-resident (EF) to ~1 %
cache coverage (CF/UU), so this workload exercises the Finding Module,
the hash cache and the HBM model, and bypasses the LRU cache.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bench.datasets import SUITE, default_cache_vertices
from repro.core import Amst, AmstConfig
from repro.mst import kruskal

from common import Outcome, model_stats, now, p50, p95, timed_median

#: layers this workload must reach; zero calls means a wrapper is dead
EXPECTED_LAYERS = ("core.finding", "kernels.fm_scan", "memory.hash_cache",
                   "memory.hbm", "graph.preprocess")


def _one_pass(graphs, cfg) -> tuple[list[float], list]:
    """Run every dataset once: per-dataset host seconds and outputs."""
    lat, results = [], []
    for key, g in graphs.items():
        t0 = now()
        res = Amst(cfg).run(g)
        lat.append(now() - t0)
        results.append((key, res.result, model_stats(res)))
    return lat, results


def _check(results, refs, out: Outcome) -> None:
    """Forest equals Kruskal's; modelled statistics repeat exactly."""
    for key, result, stats in results:
        ref = refs[key]
        first = out.model.setdefault(key, stats)
        out.check(
            np.array_equal(result.edge_ids, ref.edge_ids)
            and math.isclose(result.total_weight, ref.total_weight,
                             rel_tol=1e-12)
            and stats == first,
            f"{key}: forest differs from Kruskal or model stats changed")


def run(ctx) -> Outcome:
    out = Outcome()

    def build():
        return {d.key: d.make(seed=ctx.seed, size=ctx.size) for d in SUITE}

    cfg = AmstConfig.full(16, cache_vertices=default_cache_vertices(ctx.size))
    build_s, graphs = timed_median(build)
    t0 = now()
    Amst(cfg).run(graphs["EF"])  # lazy kernel-set build, untimed below
    warm_s = now() - t0
    refs = {key: kruskal(g) for key, g in graphs.items()}
    edges = sum(g.num_edges for g in graphs.values())

    if ctx.rec is not None:
        return _traced(ctx, out, graphs, cfg, refs)

    rates, latencies = [], []
    start = now()
    while True:
        lat, results = _one_pass(graphs, cfg)
        _check(results, refs, out)
        rates.append(edges / sum(lat) / 1e6)
        latencies.extend(lat)
        if now() - start + sum(lat) / 2 > ctx.seconds:
            break  # start another pass only if half of it fits
    out.metrics.update({
        "setup_s": ctx.import_s + build_s + warm_s,
        "medges_per_s": p50(rates),
        "p50_ms": p50(latencies) * 1e3,
        "p95_ms": p95(latencies) * 1e3,
    })
    return out


def _traced(ctx, out, graphs, cfg, refs) -> Outcome:
    lat, results = _one_pass(graphs, cfg)
    _check(results, refs, out)
    with ctx.rec.root():
        lat_traced, results = _one_pass(graphs, cfg)
    _check(results, refs, out)
    out.metrics["trace.overhead_s"] = sum(lat_traced) - sum(lat)
    return out
