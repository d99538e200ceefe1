"""Design-space sweeps beyond the paper's exhibits.

DESIGN.md calls out four architecture decisions the paper fixes without
a sensitivity study; these sweeps quantify each so a re-implementer can
re-balance them for a different FPGA:

* cache capacity (BRAM/URAM budget vs DRAM traffic);
* cache organization (none / direct / hash);
* conflict resolution (bitonic network vs atomic write-back) across PE
  counts;
* the two pipeline optimizations in isolation;
* vertex-reordering strategy.
"""

from __future__ import annotations

from ..core import Amst, AmstConfig
from ..graph.csr import CSRGraph
from ..graph.preprocess import preprocess
from .runner import ExperimentResult

__all__ = [
    "SWEEPS",
    "sweep_cache_capacity",
    "sweep_cache_organization",
    "sweep_conflict_resolution",
    "sweep_pipeline_components",
    "sweep_reordering",
    "sweep_weight_distributions",
]


def sweep_cache_capacity(
    graph: CSRGraph,
    capacities: tuple[int, ...] = (0, 256, 1024, 4096, 16384),
    *,
    parallelism: int = 16,
) -> ExperimentResult:
    """MEPS / DRAM vs cache size (the BRAM-budget knob)."""
    res = ExperimentResult(
        "Sweep-cache",
        f"Cache capacity sweep (P={parallelism}, n={graph.num_vertices})",
        ("Entries", "Coverage %", "DRAM blocks", "Parent hit %", "MEPS"),
    )
    for cap in capacities:
        cfg = AmstConfig.full(parallelism, cache_vertices=max(cap, 1)).with_(
            use_hdc=cap > 0, hash_cache=cap > 0
        )
        out = Amst(cfg).run(graph)
        stats = out.state.parent_cache.stats
        res.add_row(
            cap,
            round(100 * min(cap, graph.num_vertices)
                  / max(graph.num_vertices, 1), 1),
            out.report.dram_blocks,
            round(100 * stats.hit_rate, 1),
            round(out.report.meps, 1),
        )
    res.add_note("diminishing returns once the hot vertices are covered")
    return res


def sweep_cache_organization(
    graph: CSRGraph,
    *,
    cache_vertices: int = 4096,
    parallelism: int = 16,
    include_lru: bool = True,
) -> ExperimentResult:
    """none vs direct vs hash vs conventional LRU at a fixed capacity.

    ``include_lru`` adds the set-associative LRU upper bound — Section
    III-A's "traditional cache strategy", unbuildable under the
    multi-port constraints but a useful hit-rate reference.  It is on by
    default now that the replay is vectorized (``repro.memory.lru_cache``
    replays each batch by reuse-window scans instead of per element);
    pass ``include_lru=False`` to drop the row.
    """
    res = ExperimentResult(
        "Sweep-org",
        f"Cache organization (capacity={cache_vertices})",
        ("Organization", "DRAM blocks", "Parent hit %", "Final util %",
         "MEPS"),
    )
    variants = [
        ("none", dict(use_hdc=False, hash_cache=False)),
        ("direct", dict(use_hdc=True, hash_cache=False)),
        ("hash", dict(use_hdc=True, hash_cache=True)),
    ]
    if include_lru:
        variants.append(("lru", dict(use_hdc=True, lru_cache=True)))
    for name, kw in variants:
        cfg = AmstConfig.full(parallelism, cache_vertices=cache_vertices)
        out = Amst(cfg.with_(**kw)).run(graph)
        stats = out.state.parent_cache.stats
        res.add_row(
            name,
            out.report.dram_blocks,
            round(100 * stats.hit_rate, 1),
            round(100 * out.state.parent_cache.utilization(), 1),
            round(out.report.meps, 1),
        )
    return res


def sweep_conflict_resolution(
    graph: CSRGraph,
    parallelisms: tuple[int, ...] = (2, 4, 8, 16),
    *,
    cache_vertices: int = 4096,
) -> ExperimentResult:
    """Bitonic network vs atomic CAS write-back across PE counts.

    The gap widens with parallelism: duplicate components per batch grow
    with batch width, and each unresolved duplicate serializes.
    """
    res = ExperimentResult(
        "Sweep-net",
        "Sorting network vs atomic conflict resolution",
        ("P", "Cycles (network)", "Cycles (atomic)", "Atomic penalty %"),
    )
    pre = preprocess(graph, reorder="sort", sort_edges_by_weight=True)
    for p in parallelisms:
        base = AmstConfig.full(p, cache_vertices=cache_vertices)
        with_net = Amst(base).run(graph, preprocessed=pre).report
        without = Amst(base.with_(use_sorting_network=False)).run(
            graph, preprocessed=pre).report
        penalty = 100 * (without.total_cycles / with_net.total_cycles - 1)
        res.add_row(p, round(with_net.total_cycles),
                    round(without.total_cycles), round(penalty, 1))
    return res


def sweep_pipeline_components(
    graph: CSRGraph, *, cache_vertices: int = 4096, parallelism: int = 16
) -> ExperimentResult:
    """RM∥AM merge and FM/CM overlap, separately and together (Fig 6)."""
    res = ExperimentResult(
        "Sweep-pipe",
        "Pipeline optimizations in isolation",
        ("Variant", "Cycles", "Speedup vs serial"),
    )
    pre = preprocess(graph, reorder="sort", sort_edges_by_weight=True)
    variants = (
        ("serial", dict(merge_rm_am=False, overlap_fm_cm=False)),
        ("merge only", dict(merge_rm_am=True, overlap_fm_cm=False)),
        ("overlap only", dict(merge_rm_am=False, overlap_fm_cm=True)),
        ("both", dict(merge_rm_am=True, overlap_fm_cm=True)),
    )
    base_cycles = None
    for name, kw in variants:
        cfg = AmstConfig.full(parallelism, cache_vertices=cache_vertices)
        r = Amst(cfg.with_(**kw)).run(graph, preprocessed=pre).report
        if base_cycles is None:
            base_cycles = r.total_cycles
        res.add_row(name, round(r.total_cycles),
                    round(base_cycles / r.total_cycles, 3))
    return res


def sweep_weight_distributions(
    graph: CSRGraph,
    *,
    cache_vertices: int = 4096,
    parallelism: int = 16,
    seed: int = 0,
) -> ExperimentResult:
    """Edge-weight distribution sensitivity (ties stress SEW/mirrors).

    The paper assigns 4-byte uniform random weights; real workloads have
    other shapes — exponential (heavy near-zero mass), small-integer
    weights with massive tie populations (road travel-time buckets), and
    unit weights (spanning tree of an unweighted graph).  Tie-heavy
    distributions exercise the eid tie-break in SEW ordering and mirror
    detection; the forest must stay minimal and the performance shape
    must not collapse.
    """
    import numpy as np

    from ..mst import kruskal, validate_mst

    res = ExperimentResult(
        "Sweep-weights",
        "Edge-weight distribution sensitivity",
        ("Distribution", "Distinct %", "Iterations", "MEPS",
         "Edges examined"),
    )
    rng = np.random.default_rng(seed)
    m = graph.num_edges
    dists = (
        ("uniform-4B", rng.uniform(1, 2**32, m)),
        ("exponential", rng.exponential(1000.0, m) + 1e-9),
        ("int-16-levels", rng.integers(1, 17, m).astype(float)),
        ("unit", np.ones(m)),
    )
    cfg = AmstConfig.full(parallelism, cache_vertices=cache_vertices)
    for name, w in dists:
        g = graph.reweight(w)
        out = Amst(cfg).run(g)
        validate_mst(g, out.result, reference=kruskal(g))
        res.add_row(
            name,
            round(100 * np.unique(w).size / m, 1),
            out.result.iterations,
            round(out.report.meps, 1),
            out.log.total("fm.edges_examined"),
        )
    res.add_note("every forest validated against Kruskal under each "
                 "distribution; ties resolve by edge id")
    return res


def sweep_reordering(
    graph: CSRGraph, *, cache_vertices: int = 4096, parallelism: int = 16
) -> ExperimentResult:
    """identity vs grouped DBG vs full degree sort (Section IV-A)."""
    res = ExperimentResult(
        "Sweep-reorder",
        "Vertex reordering strategy vs cache effectiveness",
        ("Strategy", "Parent hit %", "DRAM blocks", "MEPS"),
    )
    for strategy in ("identity", "dbg", "sort"):
        pre = preprocess(graph, reorder=strategy,
                         sort_edges_by_weight=True)
        cfg = AmstConfig.full(parallelism, cache_vertices=cache_vertices)
        out = Amst(cfg).run(graph, preprocessed=pre)
        stats = out.state.parent_cache.stats
        res.add_row(
            strategy,
            round(100 * stats.hit_rate, 1),
            out.report.dram_blocks,
            round(out.report.meps, 1),
        )
    res.add_note("degree-aware orders concentrate hits in the HDV cache")
    return res


# ----------------------------------------------------------------------
# Registry: CLI sweep name -> sweep function (executor tasks).  Keys are
# the ``amst sweep --sweep`` choices; the executor filters kwargs per
# signature (e.g. ``cache`` takes no cache_vertices).
# ----------------------------------------------------------------------
SWEEPS: dict[str, object] = {
    "cache": sweep_cache_capacity,
    "organization": sweep_cache_organization,
    "network": sweep_conflict_resolution,
    "pipeline": sweep_pipeline_components,
    "reorder": sweep_reordering,
    "weights": sweep_weight_distributions,
}
