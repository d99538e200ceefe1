"""Benchmark harness: Table I dataset analogs, experiment runners and
one reproduction function per table/figure of the paper."""

from .datasets import SUITE, DatasetSpec, default_cache_vertices, load, suite
from .executor import (
    TaskSpec,
    derive_task_seed,
    execute,
    run_experiments,
    run_sweeps,
)
from .figures import (
    EXPERIMENTS,
    fig3a_stage_breakdown,
    fig3b_neighborhood_overlap,
    fig3c_useless_computation,
    fig10_cache_utilization,
    fig13_single_pe_ablation,
    fig14_parallel_scaling,
    fig15_platform_comparison,
    fig16_resource_utilization,
    mastiff_atomic_share,
    table1_datasets,
    table2_preprocessing,
)
from .runcache import (
    CacheStats,
    RunCache,
    cached_certificate,
    cached_reference,
    config_fingerprint,
    graph_fingerprint,
    preprocess_options,
)
from .runner import ExperimentResult, format_table, geomean
from .stability import seed_stability
from .sweeps import (
    SWEEPS,
    sweep_cache_capacity,
    sweep_cache_organization,
    sweep_conflict_resolution,
    sweep_pipeline_components,
    sweep_reordering,
    sweep_weight_distributions,
)

__all__ = [
    "SUITE",
    "DatasetSpec",
    "load",
    "suite",
    "default_cache_vertices",
    "CacheStats",
    "RunCache",
    "cached_certificate",
    "cached_reference",
    "config_fingerprint",
    "graph_fingerprint",
    "preprocess_options",
    "ExperimentResult",
    "format_table",
    "geomean",
    "TaskSpec",
    "derive_task_seed",
    "execute",
    "run_experiments",
    "run_sweeps",
    "EXPERIMENTS",
    "SWEEPS",
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
    "sweep_cache_capacity",
    "sweep_cache_organization",
    "sweep_conflict_resolution",
    "sweep_pipeline_components",
    "sweep_reordering",
    "seed_stability",
    "sweep_weight_distributions",
]
