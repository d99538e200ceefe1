"""Compressing Module (CM): Stage 4 on the accelerator (Section V-E, Fig 9).

Heterogeneous pipelines exploit the two backtracking regimes:

* **Root cluster** (RCPEs): current roots need irregular-depth
  backtracking — after RAPE's hooking, root→root chains can be several
  links long; each link is one Parent read.
* **Leaf clusters** (LCPEs): every leaf's chain has depth exactly 2 once
  roots are refreshed (read own pointer, read the now-fresh root, write).
  Leaves split into an HDV pipeline (cache-resident, random BRAM traffic)
  and an LDV pipeline (DRAM-resident: the ping-pong FIFO streams their
  Parent entries sequentially and the Parent Merger consolidates the
  write-back — Fig 9e).

With SIV on, intra-vertices are skipped entirely (Fig 9d Step ⑥) — their
entries freeze, which is exactly why the Finding Module pays stale-hop
reads for them (see ``state.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import IterationEvents
from .state import SimState

__all__ = ["CompressOutput", "run_compressing"]


@dataclass(frozen=True)
class CompressOutput:
    num_roots: int
    num_hdv_leaves: int
    num_ldv_leaves: int
    num_iv_skipped: int
    max_root_depth: int


def run_compressing(
    state: SimState, ev: IterationEvents, hooked_roots: np.ndarray
) -> CompressOutput:
    cfg = state.cfg
    g = state.graph
    n = g.num_vertices
    parent = state.parent
    deg = g.degrees()

    is_root = np.zeros(n, dtype=bool)
    is_root[state.roots] = True

    # ---- Root cluster: irregular backtracking ---------------------------
    roots = state.roots
    ev.add("cm.root_tasks", roots.size)
    cur = parent[roots]
    depth = np.ones(roots.size, dtype=np.int64)  # first read: own pointer
    _route_parent_reads(state, ev, roots, "cm.root")
    # hooked roots need one verification read of their target's pointer
    hooked = cur != roots
    if hooked.any():
        _route_parent_reads(state, ev, cur[hooked], "cm.root")
        depth[hooked] += 1
    unresolved = parent[cur] != cur
    max_depth = 1
    while unresolved.any():
        ids = parent[cur[unresolved]]
        _route_parent_reads(state, ev, ids, "cm.root")
        depth[unresolved] += 1
        cur = np.where(unresolved, parent[cur], cur)
        unresolved = parent[cur] != cur
        max_depth += 1
    ev.add("cm.root_reads", int(depth.sum()))
    root_final = cur
    # Parent-Writer write-back of the refreshed roots: live LDV roots
    # claim freed hash-cache slots here, which is what makes the leaf
    # pipelines' parent[r] lookups hit on later iterations (Fig 10's
    # Parent-DRAM reduction).
    wrote_roots = np.asarray(state.parent_cache.write(roots))
    root_dram_w = int(np.count_nonzero(~wrote_roots))
    ev.add("mem.cm_parent_wb_blocks",
           state.hbm.access_random("cm.parent_wb", root_dram_w,
                                   cfg.parent_bytes))

    # ---- Leaf clusters ---------------------------------------------------
    leaves = ~is_root & (deg > 0)
    num_iv_skipped = 0
    if cfg.skip_intra_vertices:
        num_iv_skipped = int(np.count_nonzero(leaves & state.iv))
        leaves &= ~state.iv
        ev.add("cm.iv_skipped", num_iv_skipped)
    leaf_ids = np.flatnonzero(leaves)

    hdv_limit = min(cfg.cache_vertices, n) if cfg.use_hdc else 0
    hdv_leaves = leaf_ids[leaf_ids < hdv_limit]
    ldv_leaves = leaf_ids[leaf_ids >= hdv_limit]
    ev.add("cm.leaf_hdv_tasks", hdv_leaves.size)
    ev.add("cm.leaf_ldv_tasks", ldv_leaves.size)

    # HDV pipeline: read own pointer + read refreshed root, write back.
    if hdv_leaves.size:
        _route_parent_reads(state, ev, hdv_leaves, "cm.leaf_hdv")
        _route_parent_reads(state, ev, parent[hdv_leaves], "cm.leaf_hdv")
        wrote = state.parent_cache.write(hdv_leaves)
        dram_w = int(np.count_nonzero(~np.asarray(wrote)))
        ev.add("cm.leaf_writes", hdv_leaves.size)
        ev.add("mem.cm_parent_wb_blocks",
               state.hbm.access_random("cm.parent_wb", dram_w,
                                       cfg.parent_bytes))

    # LDV pipeline: own pointers come from the cache when a freed slot was
    # claimed for them (the hash cache's re-use mechanism, Fig 11d/e) and
    # otherwise stream sequentially through the ping-pong FIFO; root
    # lookups stay random; the Parent Merger consolidates the DRAM
    # write-back while cache-resident entries update in place (Fig 9e).
    if ldv_leaves.size:
        own_hits = state.parent_cache.lookup(ldv_leaves)
        stream_misses = int(np.count_nonzero(~own_hits))
        ev.add("cm.leaf_ldv.parent_reads", ldv_leaves.size)
        ev.add("mem.cm_ldv_stream_blocks",
               state.hbm.access_sequential("cm.ldv_parent", stream_misses,
                                           cfg.parent_bytes))
        _route_parent_reads(state, ev, parent[ldv_leaves], "cm.leaf_ldv")
        wrote = np.asarray(state.parent_cache.write(ldv_leaves))
        dram_writes = int(np.count_nonzero(~wrote))
        ev.add("cm.leaf_writes", ldv_leaves.size)
        ev.add("mem.cm_ldv_wb_blocks",
               state.hbm.access_sequential("cm.ldv_parent_wb", dram_writes,
                                           cfg.parent_bytes))

    # ---- functional commit (kernel tier) --------------------------------
    # Roots first (so leaves resolve in two hops), then leaves.
    new_parent = state.kernels.cm_commit(parent, roots, root_final, leaf_ids)
    state.parent = new_parent
    state.fresh_at[roots] = state.iteration
    state.fresh_at[leaf_ids] = state.iteration

    # ---- Root list update: survivors written back sequentially ----------
    survivors = roots[new_parent[roots] == roots]
    state.roots = survivors
    ev.add("mem.cm_root_wb_blocks",
           state.hbm.access_sequential("cm.roots_wb", survivors.size, 4))

    return CompressOutput(
        num_roots=int(roots.size),
        num_hdv_leaves=int(hdv_leaves.size),
        num_ldv_leaves=int(ldv_leaves.size),
        num_iv_skipped=num_iv_skipped,
        max_root_depth=max_depth,
    )


def _route_parent_reads(
    state: SimState, ev: IterationEvents, ids: np.ndarray, tag: str
) -> None:
    """Count cache-routed random Parent reads for ``ids``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return
    hits = state.parent_cache.lookup(ids)
    misses = int(np.count_nonzero(~hits))
    ev.add(f"{tag}.parent_reads", ids.size)
    ev.add("mem.cm_parent_blocks",
           state.hbm.access_random("cm.parent", misses, state.cfg.parent_bytes))
