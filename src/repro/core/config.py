"""AMST accelerator configuration.

Every architectural knob the paper evaluates is a field here:

* the four single-PE optimizations of Fig 13 (``use_hdc``,
  ``skip_intra_edges``, ``skip_intra_vertices``, ``sort_edges_by_weight``);
* the hash-based cache of Fig 10 (``hash_cache``);
* the parallel/pipeline knobs of Fig 14 (``parallelism``,
  ``merge_rm_am``, ``overlap_fm_cm``, ``use_sorting_network``);
* the cycle-cost constants of the analytical performance model.

Presets: :meth:`AmstConfig.baseline` is the paper's BSL point (single PE,
no optimizations), :meth:`AmstConfig.full` the shipping configuration
(16 PEs, everything on).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CycleCosts", "AmstConfig"]


@dataclass(frozen=True)
class CycleCosts:
    """Cycle-cost constants of the analytical performance model.

    All values are in cycles at the configured clock.  They follow the
    usual FPGA accelerator budget: on-chip accesses and ALU ops are fully
    pipelined (1 op/cycle/PE), a random HBM access costs tens of cycles of
    which a deep outstanding-request queue hides most, sequential HBM
    streams at near line rate.
    """

    cache_access: float = 1.0  # BRAM/URAM read or write
    compare: float = 1.0  # weight / parent comparison
    flag_check: float = 0.25  # IE flags packed 4-per-word
    task_dispatch: float = 1.0  # scheduler hand-off per task
    dram_random_block: float = 4.0  # effective random 64B access
    dram_seq_block: float = 1.0  # streamed 64B block per channel
    atomic_conflict: float = 8.0  # serialized MinEdge CAS w/o network
    network_stage: float = 1.0  # per bitonic stage (pipelined)
    retry_penalty: float = 4.0  # FM task bounced by stale parent
    iteration_overhead: float = 64.0  # controller sync per module pass


@dataclass(frozen=True)
class AmstConfig:
    """Full architecture configuration (see module docstring)."""

    # --- parallel hardware ---
    parallelism: int = 16  # PEs per module == HBM channels used
    cache_vertices: int = 1 << 19  # 512K entries per cache (paper VI-A-1)
    frequency_mhz: float = 220.0  # Fig 16: always above 210 MHz

    # --- optimization toggles (Fig 13 / Fig 10 / Fig 14) ---
    use_hdc: bool = True  # HDV cache at all (False = BSL, all DRAM)
    hash_cache: bool = True  # hash-based vs direct HDV cache
    lru_cache: bool = False  # conventional LRU instead of HDV (motivation
    #                          study only: unbuildable multi-ported, slow)
    skip_intra_edges: bool = True  # SIE
    skip_intra_vertices: bool = True  # SIV
    sort_edges_by_weight: bool = True  # SEW
    use_sorting_network: bool = True  # bitonic conflict resolution
    merge_rm_am: bool = True  # RAPE pipeline merge (Fig 8)
    overlap_fm_cm: bool = True  # bit-marking cross-iteration overlap

    # --- verification (docs/TESTING.md) ---
    self_check: bool = False  # validate invariants every iteration

    # --- memory geometry ---
    edge_bytes: int = 8  # 4B dest + 4B weight (Section VI-A-2)
    parent_bytes: int = 4  # vertex id (+ packed IV/it_idx bits)
    minedge_bytes: int = 8  # weight + dest of the component minimum

    costs: CycleCosts = field(default_factory=CycleCosts)

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.parallelism & (self.parallelism - 1):
            raise ValueError(
                "parallelism must be a power of two (bitonic network width)"
            )
        if self.cache_vertices < 0:
            raise ValueError("cache_vertices must be non-negative")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")
        if self.use_hdc and self.hash_cache and self.cache_vertices == 0:
            raise ValueError("hash cache requires a non-zero capacity")
        if self.lru_cache and not self.use_hdc:
            raise ValueError("lru_cache requires use_hdc")

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, cache_vertices: int = 1 << 19) -> "AmstConfig":
        """The BSL point of Fig 13: single PE, every optimization off."""
        return cls(
            parallelism=1,
            cache_vertices=cache_vertices,
            use_hdc=False,
            hash_cache=False,
            skip_intra_edges=False,
            skip_intra_vertices=False,
            sort_edges_by_weight=False,
            use_sorting_network=False,
            merge_rm_am=False,
            overlap_fm_cm=False,
        )

    @classmethod
    def full(
        cls, parallelism: int = 16, cache_vertices: int = 1 << 19
    ) -> "AmstConfig":
        """The shipping configuration used for Fig 15."""
        return cls(parallelism=parallelism, cache_vertices=cache_vertices)

    def with_(self, **changes) -> "AmstConfig":
        """Functional update (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)

    @property
    def pipeline_optimized(self) -> bool:
        return self.merge_rm_am and self.overlap_fm_cm

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.frequency_mhz * 1e6)
