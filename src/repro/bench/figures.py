"""One function per table/figure of the paper's evaluation.

Each function reproduces the workload, sweep and reporting of one
exhibit and returns an :class:`~repro.bench.runner.ExperimentResult`
whose rows mirror the paper's series.  The pytest-benchmark wrappers in
``benchmarks/`` call these and print the tables; EXPERIMENTS.md records
paper-vs-measured for each.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines import run_gunrock, run_mastiff
from ..baselines.platform import TITAN_V, XEON_4114, scaled_spec
from ..core import Amst, AmstConfig, estimate_resources
from ..graph.csr import CSRGraph
from ..graph.preprocess import preprocess
from ..graph.reorder import sort_by_degree
from ..graph.stats import overlap_profile
from ..mst.boruvka import STAGE_NAMES, boruvka
from .datasets import SUITE, default_cache_vertices, suite
from .runner import ExperimentResult, geomean

__all__ = [
    "EXPERIMENTS",
    "table1_datasets",
    "table2_preprocessing",
    "fig3a_stage_breakdown",
    "fig3b_neighborhood_overlap",
    "fig3c_useless_computation",
    "mastiff_atomic_share",
    "fig10_cache_utilization",
    "fig13_single_pe_ablation",
    "fig14_parallel_scaling",
    "fig15_platform_comparison",
    "fig16_resource_utilization",
]

_PAPER_CACHE_VERTICES = 512 * 1024  # the paper's 2 MB / 512K-entry cache


def _suite(size: float, seed: int, keys=None) -> dict[str, CSRGraph]:
    return suite(size=size, seed=seed, keys=keys)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_datasets(*, size: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Table I: the dataset suite with paper-vs-analog sizes."""
    res = ExperimentResult(
        "Table I",
        "Graph datasets (synthetic category analogs)",
        ("Key", "Paper graph", "Paper |V|", "Paper |E|",
         "Analog |V|", "Analog |E|", "Avg deg", "Category"),
    )
    graphs = _suite(size, seed)
    for spec in SUITE:
        g = graphs[spec.key]
        res.add_row(
            spec.key, spec.paper_name,
            f"{spec.paper_vertices:,.0f}", f"{spec.paper_edges:,.0f}",
            g.num_vertices, g.num_edges,
            round(2 * g.num_edges / max(g.num_vertices, 1), 2),
            spec.category,
        )
    res.add_note("analogs are scaled per DESIGN.md's substitution table")
    return res


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
def table2_preprocessing(
    *, size: float = 1.0, seed: int = 0, keys=None
) -> ExperimentResult:
    """Table II: reorder/edge-sort time vs one-thread MST time.

    Times the paper's two steps as it describes them: the reorder (the
    degree permutation plus the relabelled CSR) and then the edge sort.
    :func:`~repro.graph.preprocess.preprocess` fuses the relabel into the
    sort, so its own timings would move the relabel out of "Reorder".
    """
    res = ExperimentResult(
        "Table II",
        "Preprocessing vs MST time, one thread (ms)",
        ("Key", "Reorder", "EdgeSort", "MST", "Reorder/MST"),
    )
    for key, g in _suite(size, seed, keys).items():
        t0 = time.perf_counter()
        relabelled = sort_by_degree(g).graph
        t1 = time.perf_counter()
        relabelled.sort_edges(by_weight=True)
        t2 = time.perf_counter()
        boruvka(g)
        t3 = time.perf_counter()
        reorder_ms, sort_ms, mst_ms = (
            (t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3)
        res.add_row(
            key,
            round(reorder_ms, 2),
            round(sort_ms, 2),
            round(mst_ms, 2),
            round(reorder_ms / mst_ms, 3) if mst_ms else 0.0,
        )
    res.add_note("paper: reorder cost is small relative to MST on every graph")
    return res


# ----------------------------------------------------------------------
# Fig 3(a): execution-time breakdown of the four stages
# ----------------------------------------------------------------------
def fig3a_stage_breakdown(
    *, size: float = 1.0, seed: int = 0, keys=None
) -> ExperimentResult:
    """Fig 3(a): wall-time share of Borůvka's four stages."""
    res = ExperimentResult(
        "Fig 3a",
        "Borůvka stage breakdown (% of wall time)",
        ("Key",) + STAGE_NAMES,
    )
    frac_sum = np.zeros(4)
    graphs = _suite(size, seed, keys)
    for key, g in graphs.items():
        stats = boruvka(g).extras["stats"]
        f = stats.stage_fractions() * 100.0
        frac_sum += f
        res.add_row(key, *(round(x, 2) for x in f))
    avg = frac_sum / max(len(graphs), 1)
    res.add_row("AVG", *(round(x, 2) for x in avg))
    res.add_note("paper: 82.24 / 3.68 / 2.37 / 11.72 % — Stage 1 dominates")
    return res


# ----------------------------------------------------------------------
# Fig 3(b): neighborhood overlap ratio by vertex interval
# ----------------------------------------------------------------------
def fig3b_neighborhood_overlap(
    *, size: float = 1.0, seed: int = 0, keys=None,
    intervals: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Fig 3(b): neighborhood overlap ratio per vertex interval."""
    res = ExperimentResult(
        "Fig 3b",
        "Average neighborhood overlap ratio (%)",
        ("Key",) + tuple(f"int={k}" for k in intervals),
    )
    for key, g in _suite(size, seed, keys).items():
        prof = overlap_profile(g, intervals)
        res.add_row(key, *(round(100 * prof[k], 2) for k in intervals))
    res.add_note("paper: consistently below 10 % — index-order reuse is poor")
    return res


# ----------------------------------------------------------------------
# Fig 3(c): useless computation ratio per iteration
# ----------------------------------------------------------------------
def fig3c_useless_computation(
    *, size: float = 1.0, seed: int = 0, keys=None, max_iters: int = 8
) -> ExperimentResult:
    """Fig 3(c): intra-edge (useless computation) ratio per iteration."""
    res = ExperimentResult(
        "Fig 3c",
        "Intra-edge (useless) ratio per iteration (%)",
        ("Key",) + tuple(f"it{i}" for i in range(max_iters)) + ("avg",),
    )
    averages = []
    for key, g in _suite(size, seed, keys).items():
        stats = boruvka(g).extras["stats"]
        ratios = [it.useless_ratio * 100 for it in stats.iterations]
        padded = ratios[:max_iters] + [""] * (max_iters - len(ratios))
        avg = stats.average_useless_ratio() * 100
        averages.append(avg)
        res.add_row(key, *(round(r, 1) if r != "" else "" for r in padded),
                    round(avg, 1))
    res.add_note(
        f"suite average useless ratio {np.mean(averages):.1f} % "
        "(paper: 76.08 %; >50 % past iteration 2)"
    )
    return res


# ----------------------------------------------------------------------
# Section III-C: MASTIFF atomic share
# ----------------------------------------------------------------------
def mastiff_atomic_share(
    *, size: float = 1.0, seed: int = 0, keys=None,
    cache_vertices: int | None = None,
) -> ExperimentResult:
    """Section III-C: MASTIFF's atomic-operation share of runtime."""
    res = ExperimentResult(
        "SecIII-C",
        "MASTIFF atomic-operation share of execution time (%)",
        ("Key", "Atomic %"),
    )
    cache = cache_vertices or default_cache_vertices(size)
    spec = scaled_spec(XEON_4114, cache / _PAPER_CACHE_VERTICES)
    shares = []
    for key, g in _suite(size, seed, keys).items():
        run = run_mastiff(g, spec)
        shares.append(run.perf.atomic_share * 100)
        res.add_row(key, round(shares[-1], 1))
    res.add_note(
        f"max {max(shares):.1f} %, mean {np.mean(shares):.1f} % "
        "(paper: more than 35.19 %)"
    )
    return res


# ----------------------------------------------------------------------
# Fig 10: direct vs hash HDV cache
# ----------------------------------------------------------------------
def fig10_cache_utilization(
    *, size: float = 1.0, seed: int = 0, keys=None,
    cache_vertices: int | None = None, max_iters: int = 6,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Returns (utilization-per-iteration table, DRAM-reduction table)."""
    cache = cache_vertices or default_cache_vertices(size)
    util = ExperimentResult(
        "Fig 10ab",
        "Cache utilization per iteration (%), direct vs hash",
        ("Key", "Cache", "Kind")
        + tuple(f"it{i}" for i in range(max_iters)),
    )
    dram = ExperimentResult(
        "Fig 10cd",
        "DRAM accesses, hash cache vs direct cache",
        ("Key", "MinEdge direct", "MinEdge hash", "MinEdge Δ%",
         "Parent direct", "Parent hash", "Parent Δ%"),
    )
    me_reds, pa_reds = [], []
    for key, g in _suite(size, seed, keys).items():
        outs = {}
        for kind, hashed in (("direct", False), ("hash", True)):
            cfg = AmstConfig.full(16, cache_vertices=cache).with_(
                hash_cache=hashed
            )
            outs[kind] = Amst(cfg).run(g)
            for cache_name, attr in (
                ("Parent", "parent_cache_utilization"),
                ("MinEdge", "minedge_cache_utilization"),
            ):
                series = [
                    getattr(ev, attr) * 100 for ev in outs[kind].log.iterations
                ]
                padded = series[:max_iters] + [""] * (max_iters - len(series))
                util.add_row(
                    key, cache_name, kind,
                    *(round(v, 1) if v != "" else "" for v in padded),
                )
        def _stream_blocks(out, names):
            snap = out.state.hbm.snapshot()
            return sum(snap.get(nm, {"blocks": 0})["blocks"] for nm in names)

        me_names = ("fm.minedge", "fm.minedge_wb", "rape.minedge")
        pa_names = ("fm.parent", "fm.parent_wb", "rape.parent",
                    "rape.parent_wb", "cm.parent", "cm.parent_wb",
                    "cm.ldv_parent", "cm.ldv_parent_wb")
        me_d = _stream_blocks(outs["direct"], me_names)
        me_h = _stream_blocks(outs["hash"], me_names)
        pa_d = _stream_blocks(outs["direct"], pa_names)
        pa_h = _stream_blocks(outs["hash"], pa_names)
        me_red = 100 * (1 - me_h / me_d) if me_d else 0.0
        pa_red = 100 * (1 - pa_h / pa_d) if pa_d else 0.0
        me_reds.append(me_red)
        pa_reds.append(pa_red)
        dram.add_row(key, me_d, me_h, round(me_red, 1),
                     pa_d, pa_h, round(pa_red, 1))
    dram.add_note(
        f"mean reduction: MinEdge {np.mean(me_reds):.1f} %, "
        f"Parent {np.mean(pa_reds):.1f} % (paper: 22.50 % / 54.28 %)"
    )
    return util, dram


# ----------------------------------------------------------------------
# Fig 13: single-PE optimization ablation
# ----------------------------------------------------------------------
_ABLATION_STEPS = ("BSL", "+HDC", "+SIE", "+SIV", "+SEW")


def fig13_single_pe_ablation(
    *, size: float = 1.0, seed: int = 0, keys=None,
    cache_vertices: int | None = None,
) -> ExperimentResult:
    """Fig 13: cumulative single-PE optimization ablation (BSL..+SEW)."""
    res = ExperimentResult(
        "Fig 13",
        "Single-PE cumulative ablation (normalized to BSL)",
        ("Key", "Step", "DRAM", "Compute", "Time"),
    )
    cache = cache_vertices or default_cache_vertices(size)
    base = AmstConfig.baseline(cache_vertices=cache)
    steps = (
        ("BSL", base),
        ("+HDC", base.with_(use_hdc=True, hash_cache=True)),
        ("+SIE", base.with_(use_hdc=True, hash_cache=True,
                            skip_intra_edges=True)),
        ("+SIV", base.with_(use_hdc=True, hash_cache=True,
                            skip_intra_edges=True, skip_intra_vertices=True)),
        ("+SEW", base.with_(use_hdc=True, hash_cache=True,
                            skip_intra_edges=True, skip_intra_vertices=True,
                            sort_edges_by_weight=True)),
    )
    finals = {"DRAM": [], "Compute": [], "Time": []}
    for key, g in _suite(size, seed, keys).items():
        ref = None
        for name, cfg in steps:
            r = Amst(cfg).run(g).report
            vals = (r.dram_blocks, r.compute_work, r.total_cycles)
            if ref is None:
                ref = vals
            norm = tuple(v / rv if rv else 0.0 for v, rv in zip(vals, ref))
            res.add_row(key, name, *(round(x, 3) for x in norm))
            if name == "+SEW":
                finals["DRAM"].append(norm[0])
                finals["Compute"].append(norm[1])
                finals["Time"].append(norm[2])
    res.add_note(
        "final reductions vs BSL: DRAM {:.1f} %, compute {:.1f} %, "
        "time {:.1f} % (paper: 88.67 / 55.51 / 86.79 %)".format(
            100 * (1 - np.mean(finals["DRAM"])),
            100 * (1 - np.mean(finals["Compute"])),
            100 * (1 - np.mean(finals["Time"])),
        )
    )
    return res


# ----------------------------------------------------------------------
# Fig 14: parallelism + pipeline scaling
# ----------------------------------------------------------------------
def fig14_parallel_scaling(
    *, size: float = 1.0, seed: int = 0, keys=None,
    cache_vertices: int | None = None,
    parallelisms: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Fig 14: PE-count scaling with and without pipeline optimization."""
    res = ExperimentResult(
        "Fig 14",
        "Speedup vs 1 PE (no pipeline opt), with/without pipeline",
        ("Key",)
        + tuple(f"P{p}" for p in parallelisms)
        + tuple(f"P{p}+pipe" for p in parallelisms),
    )
    cache = cache_vertices or default_cache_vertices(size)
    p16_plain, p16_pipe = [], []
    for key, g in _suite(size, seed, keys).items():
        pp = preprocess(g, reorder="sort", sort_edges_by_weight=True)
        cycles = {}
        for p in parallelisms:
            for pipe in (False, True):
                cfg = AmstConfig.full(p, cache_vertices=cache).with_(
                    merge_rm_am=pipe, overlap_fm_cm=pipe
                )
                cycles[(p, pipe)] = (
                    Amst(cfg).run(g, preprocessed=pp).report.total_cycles
                )
        base = cycles[(parallelisms[0], False)]
        plain = [base / cycles[(p, False)] for p in parallelisms]
        piped = [base / cycles[(p, True)] for p in parallelisms]
        p16_plain.append(plain[-1])
        p16_pipe.append(piped[-1])
        res.add_row(key, *(round(s, 2) for s in plain + piped))
    res.add_note(
        "at P=16: plain {:.2f}–{:.2f}x, +pipeline {:.2f}–{:.2f}x "
        "(paper: 4.74–12.19x and 8.07–13.39x)".format(
            min(p16_plain), max(p16_plain), min(p16_pipe), max(p16_pipe)
        )
    )
    return res


# ----------------------------------------------------------------------
# Fig 15: AMST vs MASTIFF (CPU) vs Gunrock (GPU)
# ----------------------------------------------------------------------
def fig15_platform_comparison(
    *, size: float = 1.0, seed: int = 0, keys=None,
    cache_vertices: int | None = None,
) -> ExperimentResult:
    """Fig 15: AMST vs MASTIFF (CPU) and Gunrock (GPU), MEPS + energy."""
    res = ExperimentResult(
        "Fig 15",
        "Throughput (MEPS) and energy efficiency vs CPU and GPU",
        ("Key", "AMST", "CPU", "GPU", "vsCPU", "vsGPU",
         "E-vsCPU", "E-vsGPU"),
    )
    cache = cache_vertices or default_cache_vertices(size)
    factor = cache / _PAPER_CACHE_VERTICES
    cpu_spec = scaled_spec(XEON_4114, factor)
    gpu_spec = scaled_spec(TITAN_V, factor)
    cfg = AmstConfig.full(16, cache_vertices=cache)
    sc, sg, ec, eg = [], [], [], []
    for key, g in _suite(size, seed, keys).items():
        a = Amst(cfg).run(g).report
        c = run_mastiff(g, cpu_spec).perf
        u = run_gunrock(g, gpu_spec).perf
        sc.append(a.meps / c.meps)
        sg.append(a.meps / u.meps)
        ec.append(c.energy_joules / a.energy_joules)
        eg.append(u.energy_joules / a.energy_joules)
        res.add_row(key, round(a.meps, 1), round(c.meps, 1),
                    round(u.meps, 1), round(sc[-1], 2), round(sg[-1], 2),
                    round(ec[-1], 1), round(eg[-1], 1))
    res.add_note(
        "speedup vs CPU: mean {:.2f}x range {:.2f}–{:.2f}x "
        "(paper avg 17.52x, range 2.95–48.07x)".format(
            float(np.mean(sc)), min(sc), max(sc))
    )
    res.add_note(
        "speedup vs GPU: geomean {:.2f}x (paper avg 1.89x); energy "
        "vs CPU {:.1f}x / vs GPU {:.1f}x (paper 74.96x / 10.45x)".format(
            geomean(sg), float(np.mean(ec)), geomean(eg))
    )
    return res


# ----------------------------------------------------------------------
# Fig 16: resources and frequency
# ----------------------------------------------------------------------
def fig16_resource_utilization(
    *, cache_vertices: int = _PAPER_CACHE_VERTICES,
    parallelisms: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Fig 16: U280 resource utilization and clock vs parallelism."""
    res = ExperimentResult(
        "Fig 16",
        "U280 resource utilization (%) and clock (MHz) vs parallelism",
        ("P", "REG %", "LUT %", "BRAM %", "URAM %", "MHz", "Fits"),
    )
    for p in parallelisms:
        cfg = AmstConfig.full(p, cache_vertices=cache_vertices)
        rr = estimate_resources(cfg)
        u = rr.utilization()
        res.add_row(
            p, round(100 * u["REG"], 2), round(100 * u["LUT"], 2),
            round(100 * u["BRAM"], 2), round(100 * u["URAM"], 2),
            round(rr.frequency_mhz, 1), rr.fits(),
        )
    res.add_note(
        "paper at P=16: 48.36 % REG, 79.03 % LUT, 93.21 % BRAM, "
        "87.64 % URAM, >210 MHz"
    )
    return res


# ----------------------------------------------------------------------
# Registry: CLI experiment name -> exhibit functions (executor tasks).
# Module-level functions, not lambdas: the parallel executor pickles
# them by reference into worker processes.
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, tuple] = {
    "table1": (table1_datasets,),
    "table2": (table2_preprocessing,),
    "fig3": (fig3a_stage_breakdown, fig3b_neighborhood_overlap,
             fig3c_useless_computation, mastiff_atomic_share),
    "fig10": (fig10_cache_utilization,),
    "fig13": (fig13_single_pe_ablation,),
    "fig14": (fig14_parallel_scaling,),
    "fig15": (fig15_platform_comparison,),
    "fig16": (fig16_resource_utilization,),
}
