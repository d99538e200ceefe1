"""Finding Module (FM): Stage 1 on the accelerator (Section V-C, Fig 7).

One call to :func:`run_finding` simulates a full FM pass for the current
iteration, vectorized over all scheduled vertices:

* the task scheduler streams vertex metadata (offsets + Parent data) and
  skips intra-vertices when SIV is on (Fig 7b);
* each FPE walks its vertex's edge segment: IE-flagged edges cost only a
  flag check (SIE, Step ①), other edges cost a Parent lookup routed via
  the HDV cache (Step ②), equal parents mark the edge intra (Step ③/⑥),
  and with SEW the walk stops at the first external edge (Step ⑤);
* vertices whose every edge is internal become intra-vertices (Step ⑦);
* surviving per-vertex candidates flow through the bitonic sorting
  network in ``parallelism``-wide batches and the MinEdge writer commits
  read-modify-write updates (Fig 7c).

The functional outcome — the per-component minimum external edge under
the global ``(weight, eid)`` order — is provably identical to the
reference Borůvka's Stage 1 (the per-vertex first external edge in SEW
order *is* the vertex's minimum, and the network/writer keep the global
minimum per component).

The host does work in proportion to the edges the FPEs examine.  With
SEW the segments are scanned in rounds (one HBM edge block of every
segment, then doubling chunks of the segments that have no external
edge yet, one ``numpy_impl.fm_scan`` call per round), so a hub's edges
past its first external one are never flattened.  Without SEW every
edge is examined and one round takes the whole segments.  The Parent
lookups still go out in flat order, vertex by vertex with positions
ascending: the LRU cache's hits depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import stable_argsort, weight_eid_order
from ..kernels import numpy_impl
from ..memory.hbm import BLOCK_BYTES
from .events import IterationEvents
from .sorting_network import bitonic_stage_count
from .state import SimState
from .utils import concat_ranges, count_distinct, segment_offsets

__all__ = ["FindingOutput", "run_finding"]


@dataclass(frozen=True)
class FindingOutput:
    """Candidates that reached the MinEdge table this iteration."""

    comps: np.ndarray  # component roots that found an external edge
    num_candidates: int  # per-vertex candidates before the network
    num_new_iv: int


def run_finding(state: SimState, ev: IterationEvents) -> FindingOutput:
    g = state.graph
    cfg = state.cfg
    n = g.num_vertices
    deg = g.degrees()

    # ---- task scheduler -------------------------------------------------
    # Streams the offset and Parent arrays for all vertices (ping-pong
    # buffer, sequential); IV vertices are dropped before dispatch.
    ev.add("mem.sched_offset_blocks",
           state.hbm.access_sequential("fm.offsets", n, 8))
    ev.add("mem.sched_parent_blocks",
           state.hbm.access_sequential("fm.parent_stream", n,
                                       cfg.parent_bytes))
    schedulable = deg > 0
    if cfg.skip_intra_vertices:
        ev.add("fm.iv_skipped", int(np.count_nonzero(schedulable & state.iv)))
        schedulable &= ~state.iv
    vs = np.flatnonzero(schedulable)
    ev.add("fm.tasks", vs.size)
    if vs.size == 0:
        return FindingOutput(np.empty(0, np.int64), 0, 0)

    roots_all = state.resolve_roots()
    src_comp_per_v = roots_all[vs]

    # me_p read per dispatched task: MinEdge[Parent[v]] (Fig 7b).
    me_hits = state.minedge_cache.lookup(src_comp_per_v)
    me_misses = int(np.count_nonzero(~me_hits))
    ev.add("fm.minedge_reads", vs.size)
    ev.add("mem.fm_minedge_blocks",
           state.hbm.access_random("fm.minedge", me_misses,
                                   cfg.minedge_bytes))

    # ---- per-vertex segment scan (Fig 7 Steps ①-⑤) ---------------------
    # In rounds (module docstring): with SEW one edge block of every
    # segment, then twice the previous chunk of each segment still
    # without an external edge; without SEW, whose candidate is the
    # minimum (weight, eid) external edge, one round of whole segments.
    # Each round counts its examined edges and keeps two arrays: the
    # positions whose Parent is looked up (their edge words are fetched)
    # and the newly intra positions.
    sew = cfg.sort_edges_by_weight
    sie = cfg.skip_intra_edges
    edges_per_block = max(BLOCK_BYTES // cfg.edge_bytes, 1)
    chunk = edges_per_block
    found = np.zeros(vs.size, dtype=bool)
    cand_pos = np.empty(vs.size, dtype=np.int64)  # global half-edge index
    act = np.arange(vs.size, dtype=np.int64)  # segments still scanning
    lo = g.indptr[vs]
    end = g.indptr[vs + 1]
    n_examined = n_skipped_ie = n_external = 0
    fetched, marked = [], []
    while act.size:
        hi = np.minimum(lo + chunk, end) if sew else end
        lens = hi - lo
        offsets = segment_offsets(lens)
        seg_id = np.repeat(np.arange(act.size, dtype=np.int64), lens)
        flat = concat_ranges(lo, hi)  # global half-edge indices
        e_dst = g.dst[flat]
        flags = state.ie[flat] if sie else np.zeros(flat.size, dtype=bool)
        # Functional external test uses resolved roots; the per-lookup
        # cost of chasing stale (frozen IV) parent chains is charged
        # below.
        external = ~flags & (
            roots_all[e_dst] != src_comp_per_v[act][seg_id])
        # One kernel call covers the first-external probe, the examined
        # prefix (SEW stops after the first external edge) and the
        # candidate pick, for which alone the non-SEW path reads the
        # weight/eid arrays.
        if sew:
            w_flat = np.empty(0, np.float64)
            eid_flat = np.empty(0, np.int64)
        else:
            w_flat = g.weight[flat]
            eid_flat = g.eid[flat]
        with state.timers.section("kernel.fm_scan"):
            _, hit, exam_end, cand_local = numpy_impl.fm_scan(
                external, offsets, seg_id, w_flat, eid_flat, sew)
        examined = np.arange(flat.size) < exam_end[seg_id]
        lookup = examined & ~flags
        n_examined += int(np.count_nonzero(examined))
        n_skipped_ie += int(np.count_nonzero(examined & flags))
        n_external += int(np.count_nonzero(examined & external))
        fetched.append(flat[lookup])
        if sie:
            marked.append(flat[lookup & ~external])
        done = act[hit]
        found[done] = True
        cand_pos[done] = flat[cand_local[hit]]
        more = ~hit & (hi < end)
        act, lo, end = act[more], hi[more], end[more]
        chunk *= 2
    rounds = len(fetched)
    fetched = _concat(fetched)
    if rounds > 1:
        # Back to flat order, vertex by vertex with positions ascending
        # (ascending half-edge index): the LRU cache's hits depend on the
        # lookup order.  The positions are distinct, so marking them in
        # a table and reading it back sorts them in O(2m).
        in_scan = np.zeros(g.dst.size, dtype=bool)
        in_scan[fetched] = True
        fetched = np.flatnonzero(in_scan)
    lookup_ids = g.dst[fetched]

    # ---- per-edge costs --------------------------------------------------
    ev.add("fm.edges_examined", n_examined)
    ev.add("fm.flag_checks", n_examined if sie else 0)
    ev.add("fm.edges_skipped_ie", n_skipped_ie)

    ev.add("fm.parent_lookups", lookup_ids.size)
    hits = state.parent_cache.lookup(lookup_ids)
    misses = int(np.count_nonzero(~hits))
    ev.add("fm.parent_hits", lookup_ids.size - misses)
    ev.add("mem.fm_parent_blocks",
           state.hbm.access_random("fm.parent", misses, cfg.parent_bytes))

    # extra hops for stale (frozen IV) parent chains — Fig 7 Step 4.
    if cfg.skip_intra_vertices and lookup_ids.size:
        _, hop_ids = state.stale_hops(lookup_ids)
        for ids in hop_ids:
            ev.add("fm.stale_hops", ids.size)
            h = state.parent_cache.lookup(ids)
            hop_misses = int(np.count_nonzero(~h))
            ev.add("mem.fm_parent_blocks",
                   state.hbm.access_random("fm.parent", hop_misses,
                                           cfg.parent_bytes))

    # parent comparison per looked-up edge; weight compare on externals.
    ev.add("fm.parent_compares", lookup_ids.size)
    ev.add("fm.weight_compares", n_external)

    # ---- edge-data DRAM traffic -----------------------------------------
    # Edge words are only fetched for edges actually processed (flagged
    # edges ride the same block but skipped blocks — fully flagged — are
    # never issued, Fig 4c).
    block_space = g.dst.size // edges_per_block + 1
    num_blocks = count_distinct(fetched // edges_per_block, block_space)
    ev.add("mem.fm_edge_blocks",
           state.hbm.access_blocks("fm.edges", num_blocks))

    # ---- intra-edge marking (Step 3/6) ----------------------------------
    if sie:
        marked = _concat(marked)
        if marked.size:
            state.ie[marked] = True
            ev.add("fm.ie_marks", marked.size)
            num_wb_blocks = count_distinct(
                marked // edges_per_block, block_space)
            ev.add("mem.fm_ie_writeback_blocks",
                   state.hbm.access_blocks("fm.edges_wb", num_wb_blocks))

    # ---- intra-vertex detection (Step 7) ---------------------------------
    new_iv_vs = vs[~found]
    # Degree-0 vertices are never scheduled; vertices with no external
    # edge left are internal from now on.
    if new_iv_vs.size:
        state.iv[new_iv_vs] = True
        ev.add("fm.iv_marks", new_iv_vs.size)
        if cfg.skip_intra_vertices:
            # write the IV flag into the Parent data, then reclaim the
            # now-dead cache slots (their data is never read again)
            wrote = state.parent_cache.write(new_iv_vs)
            dram_w = int(np.count_nonzero(~np.asarray(wrote)))
            ev.add("mem.fm_iv_flag_blocks",
                   state.hbm.access_random("fm.parent_wb", dram_w,
                                           cfg.parent_bytes))
            state.parent_cache.mark_dead(new_iv_vs)

    # ---- candidate selection ---------------------------------------------
    # The scan already picked each vertex's candidate (SEW: the first
    # external edge; otherwise the minimum (weight, eid) one).
    cand_flat = cand_pos[found]

    cand_comp = src_comp_per_v[found]
    cand_w = g.weight[cand_flat]
    cand_eid = g.eid[cand_flat]
    cand_target = roots_all[g.dst[cand_flat]]
    ev.add("fm.candidates", cand_comp.size)

    # ---- sorting network + MinEdge writer ---------------------------------
    with state.timers.section("sub.network"):
        comps = _commit_minedge(state, ev, cand_comp, cand_w, cand_eid,
                                cand_target)
    return FindingOutput(comps, int(cand_comp.size), int(new_iv_vs.size))


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """One array from a scan's per-round parts; no copy for one round."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _commit_minedge(
    state: SimState,
    ev: IterationEvents,
    comp: np.ndarray,
    w: np.ndarray,
    eid: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Batch candidates through the network, commit RMW updates.

    The real compare-exchange network lives in ``sorting_network.py`` and
    is verified there; running it per batch would be a Python-level loop
    over the candidate stream, so the *effect* of the network — duplicate
    components merged within each ``parallelism``-wide batch — is computed
    here in closed form (same counts, vectorized).  Returns the distinct
    components, ascending.
    """
    cfg = state.cfg
    if comp.size == 0:
        return np.empty(0, np.int64)
    p = cfg.parallelism
    m = comp.size
    # rank = global (weight, eid) order; exact int key for running minima
    ranked = weight_eid_order(w, eid)
    rank = np.empty(m, dtype=np.int64)
    rank[ranked] = np.arange(m, dtype=np.int64)

    # me_p filter (Fig 7 Step 5) with realistic lag: P FPEs dispatch per
    # batch and read me_p *at dispatch*, so a candidate only sees the
    # component minimum established by *earlier batches* — same-component
    # candidates inside one batch all pass the filter and it is the
    # sorting network's job to merge them (Section V-C-2).  The stable
    # sort keeps each component's candidates in stream (= batch) order.
    by_comp = stable_argsort(comp)
    c_s, b_s, r_s = comp[by_comp], by_comp // p, rank[by_comp]
    grp_start = np.ones(m, dtype=bool)
    grp_start[1:] = (c_s[1:] != c_s[:-1]) | (b_s[1:] != b_s[:-1])
    grp_first = np.flatnonzero(grp_start)
    gmin = np.minimum.reduceat(r_s, grp_first)  # per-(comp, batch) min
    gcomp = c_s[grp_first]
    # exclusive running min of gmin within each comp (groups batch-ordered)
    seg_start = np.ones(gmin.size, dtype=bool)
    seg_start[1:] = gcomp[1:] != gcomp[:-1]
    seg_id = np.cumsum(seg_start) - 1
    span = np.int64(m + 1)
    inc = np.minimum.accumulate(gmin - seg_id * span) + seg_id * span
    big = np.iinfo(np.int64).max
    excl = np.empty_like(inc)
    excl[0] = big
    excl[1:] = np.where(seg_start[1:], big, inc[:-1])
    # forward decision per candidate: beats the stale (pre-batch) me_p
    snapshot = excl[np.cumsum(grp_start) - 1]
    n_forward = int(np.count_nonzero(r_s < snapshot))
    ev.add("fm.candidates_filtered", m - n_forward)
    ev.add("fm.candidates_forwarded", n_forward)

    # batch-group winners among the forwarded candidates: exactly one per
    # (comp, batch) group that forwarded anything — the group's min rank
    # beats the pre-batch snapshot iff any member does
    winners = int(np.count_nonzero(gmin < excl))
    merged = n_forward - winners
    num_batches = (m - 1) // p + 1

    if cfg.use_sorting_network:
        ev.add("net.batches", num_batches)
        ev.add("net.conflicts_merged", merged)
        ev.add("net.stages", num_batches * bitonic_stage_count(p))
        writer_inputs = winners
        commits = winners  # cross-batch winners strictly improve
    else:
        # without the network every forwarded candidate issues its own
        # atomic read-modify-write; batch-local duplicates serialize
        ev.add("net.atomic_conflicts", merged)
        writer_inputs = n_forward
        commits = winners

    ev.add("fm.minedge_writer_reads", writer_inputs)
    ev.add("fm.minedge_writer_commits", commits)

    comp_first = np.flatnonzero(seg_start)
    updated = gcomp[comp_first]
    ev.add("fm.minedge_updates", updated.size)
    wrote = state.minedge_cache.write(updated)
    dram_w = int(np.count_nonzero(~np.asarray(wrote)))
    ev.add("mem.fm_minedge_wb_blocks",
           state.hbm.access_random("fm.minedge_wb", dram_w,
                                   cfg.minedge_bytes))

    # ---- functional commit: global (weight, eid) minimum per component --
    win = ranked[np.minimum.reduceat(gmin, comp_first)]
    better = w[win] < state.me_weight[updated]
    win = win[better]
    state.me_weight[comp[win]] = w[win]
    state.me_eid[comp[win]] = eid[win]
    state.me_target[comp[win]] = target[win]
    return updated
