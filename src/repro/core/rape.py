"""Removing + Appending Module (Section V-D, Fig 8).

Stage 2 removes mirrored minimum edges; Stage 3 appends survivors to the
MST and hooks the losing component under the winning one.  The paper's
pipeline-merge insight: the apparent Stage-2→Stage-3 dependency is a
pseudo-dependency once the removing check also verifies the parent
relationship (the condition Algorithm 1 already established in Stage 1),
so a single merged RAPE pass does both with 2 MinEdge + 2 Parent reads
per root instead of 3 + 3 (``merge_rm_am``).

Mirror detection: component ``r``'s minimum edge is mirrored iff the
target component's minimum edge is the *same undirected edge* (the
``(weight, eid)`` selection order makes mutual selection imply identical
eid — see ``repro/mst/boruvka.py``); the side with the smaller root id is
nulled (Algorithm 1 line 13-14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import numpy_impl
from .events import IterationEvents
from .state import SimState

__all__ = ["RapeOutput", "run_rape"]


@dataclass(frozen=True)
class RapeOutput:
    """Stage 2+3 results for one iteration."""

    appended_eids: np.ndarray  # undirected edge ids pushed into the MST
    appended_weight: float
    hooked_roots: np.ndarray  # roots whose parent was re-pointed
    num_mirrors_removed: int


def run_rape(state: SimState, ev: IterationEvents) -> RapeOutput:
    cfg = state.cfg

    # Task scheduler streams the Root list from DRAM (Fig 8d).
    roots = state.roots
    ev.add("mem.rape_root_blocks",
           state.hbm.access_sequential("rape.roots", roots.size, 4))

    # First MinEdge read per root; null entries (finished components or
    # merged-away roots) cost the read but do no further work.
    hits = state.minedge_cache.lookup(roots)
    misses = int(np.count_nonzero(~hits))
    ev.add("rape.minedge_reads", roots.size)
    ev.add("mem.rape_minedge_blocks",
           state.hbm.access_random("rape.minedge", misses,
                                   cfg.minedge_bytes))

    cand = roots[state.me_eid[roots] >= 0]
    ev.add("rape.tasks", cand.size)
    if cand.size == 0:
        return RapeOutput(np.empty(0, np.int64), 0.0,
                          np.empty(0, np.int64), 0)

    tgt = state.me_target[cand]

    # Reads per candidate root (Fig 8c): Parent[minedge.dest] (already
    # folded into me_target by FM) + MinEdge[target] + Parent[dest_dest].
    per_root_me = 1 if cfg.merge_rm_am else 2  # extra pass when unmerged
    per_root_parent = 2 if cfg.merge_rm_am else 3
    me2_hits = state.minedge_cache.lookup(np.tile(tgt, per_root_me))
    me2_misses = int(np.count_nonzero(~me2_hits))
    ev.add("rape.minedge_reads", per_root_me * cand.size)
    ev.add("mem.rape_minedge_blocks",
           state.hbm.access_random("rape.minedge", me2_misses,
                                   cfg.minedge_bytes))
    p_ids = np.tile(tgt, per_root_parent)
    p_hits = state.parent_cache.lookup(p_ids)
    p_misses = int(np.count_nonzero(~p_hits))
    ev.add("rape.parent_reads", per_root_parent * cand.size)
    ev.add("mem.rape_parent_blocks",
           state.hbm.access_random("rape.parent", p_misses,
                                   cfg.parent_bytes))
    ev.add("rape.compares", cand.size * (2 if cfg.merge_rm_am else 3))

    # ---- Stage 2: mirror removal (kernel tier) ---------------------------
    with state.timers.section("kernel.rape_mirrors"):
        mirror = numpy_impl.rape_mirrors(state.me_eid, cand, tgt)
    keep = cand[~mirror]
    ev.add("rape.mirrors_removed", int(np.count_nonzero(mirror)))

    # ---- Stage 3: append to MST, hook the component ----------------------
    appended_eids = state.me_eid[keep]
    appended_weight = float(state.me_weight[keep].sum())
    ev.add("rape.appends", keep.size)
    ev.add("mem.rape_mst_blocks",
           state.hbm.access_sequential("rape.mst", keep.size, 12))

    new_target = state.me_target[keep]
    state.write_parent(keep, new_target)
    state.fresh_at[keep] = state.iteration  # hooked roots are hot
    wrote = state.parent_cache.write(keep)
    dram_w = int(np.count_nonzero(~np.asarray(wrote)))
    ev.add("rape.parent_writes", keep.size)
    ev.add("mem.rape_parent_wb_blocks",
           state.hbm.access_random("rape.parent_wb", dram_w,
                                   cfg.parent_bytes))

    # Hooked roots stop being roots: their MinEdge entries die, and the
    # hash cache reclaims the slots (Fig 11e "clear").
    state.minedge_cache.mark_dead(keep)
    # Their Parent-cache entries stay live: leaves still resolve through
    # them until compression completes.

    return RapeOutput(
        appended_eids=np.asarray(appended_eids, dtype=np.int64),
        appended_weight=appended_weight,
        hooked_roots=np.asarray(keep, dtype=np.int64),
        num_mirrors_removed=int(np.count_nonzero(mirror)),
    )
