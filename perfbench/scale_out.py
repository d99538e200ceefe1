"""scale-out: the multi-card fabric at full size.

``run_fabric`` on RC and CF over partitioners {range, hash, edge-cut,
grid2d} x cards {4, 16} with ``jobs=2``: partitioning, the shared-memory
publish, the worker pool, the binomial reduction and the parent-side
merge run.  Every forest must equal the serial ``Amst`` forest.
"""

from __future__ import annotations

import numpy as np

from repro.bench.datasets import default_cache_vertices, load
from repro.core import Amst, AmstConfig
from repro import fabric
from repro.fabric import FabricError

from common import Outcome, now, p50, p95, shm_segments, timed_median

GRAPHS = ("RC", "CF")
PARTITIONERS = ("range", "hash", "edge-cut", "grid2d")
CARDS = (4, 16)
JOBS = 2
#: a single cell time swings by ~20 % between grids on a shared host, so
#: each cell's median over at least this many grids is what is reported
MIN_GRIDS = 3

EXPECTED_LAYERS = ("fabric.run", "fabric.plan_edges", "fabric.local",
                   "fabric.model_rounds", "graph.shm.publish")


def _grid(graphs, cfg, serial, out: Outcome) -> tuple[list[float], dict]:
    """Every (graph, partitioner, cards) cell once; per-cell seconds.

    Each cell is checked as soon as its clock stops, so no fabric run
    outlives its cell.
    """
    lat, model = [], {}
    before = shm_segments()
    for key, g in graphs.items():
        for part in PARTITIONERS:
            for cards in CARDS:
                cell = f"{key}/{part}/{cards}"
                t0 = now()
                try:
                    fab = fabric.run_fabric(g, cards, cfg, partitioner=part,
                                     jobs=JOBS)
                except FabricError as exc:
                    lat.append(now() - t0)
                    out.check(False, f"{cell}: {exc}")
                    continue
                lat.append(now() - t0)
                if out.check(np.array_equal(np.sort(fab.forest_eids),
                                            serial[key][0]),
                             f"{cell}: forest differs from serial Amst"):
                    model[cell] = {
                        "cut_fraction": float(fab.plan.stats.cut_fraction),
                        "bytes": int(fab.network.total_bytes),
                        "model_speedup":
                            serial[key][1] / fab.modelled_seconds,
                    }
    leaked = shm_segments() - before
    out.check(not leaked, f"leaked shm segments: {sorted(leaked)}")
    return lat, model


def run(ctx) -> Outcome:
    out = Outcome()

    def build():
        return {key: load(key, seed=ctx.seed, size=ctx.size)
                for key in GRAPHS}

    cfg = AmstConfig.full(16, cache_vertices=default_cache_vertices(ctx.size))
    build_s, graphs = timed_median(build)
    serial = {}
    for key, g in graphs.items():
        res = Amst(cfg).run(g)
        serial[key] = (np.sort(res.result.edge_ids), res.report.seconds)
    grid_edges = sum(g.num_edges for g in graphs.values()) \
        * len(PARTITIONERS) * len(CARDS)

    if ctx.rec is None:
        grids, start = [], now()
        while True:
            lat, out.model = _grid(graphs, cfg, serial, out)
            grids.append(lat)
            if len(grids) >= MIN_GRIDS \
                    and now() - start + sum(lat) / 2 > ctx.seconds:
                break  # start another grid only if half of it fits
        cells = [p50(times) for times in zip(*grids)]  # per-cell medians
        out.metrics.update({
            "setup_s": ctx.import_s + build_s,
            "medges_per_s": grid_edges / sum(cells) / 1e6,
            "p50_ms": p50(cells) * 1e3,
            "p95_ms": p95(cells) * 1e3,
        })
        return out

    lat, _ = _grid(graphs, cfg, serial, out)
    with ctx.rec.root():
        lat_traced, model = _grid(graphs, cfg, serial, out)
    out.model = model
    cells = list(model.values()) or [
        {"cut_fraction": 0.0, "bytes": 0, "model_speedup": 1.0}]
    out.metrics.update({
        "trace.overhead_s": sum(lat_traced) - sum(lat),
        "fabric.cut_fraction": float(np.mean(
            [c["cut_fraction"] for c in cells])),
        "fabric.bytes": sum(c["bytes"] for c in cells),
        "fabric.model_speedup": float(np.exp(np.mean(
            [np.log(c["model_speedup"]) for c in cells]))),
    })
    return out
