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

The host does the work the FPEs model.  With SEW the segments are
scanned in rounds (one HBM edge block of every segment, then doubling
chunks of the segments that have no external edge yet, one
``numpy_impl.fm_scan`` call per round) that only find each vertex's
first external edge, so a hub's edges past it are never flattened.
With SIE on too, a scan starts at the vertex's cursor
(``SimState.scan_from``): its IE-flagged prefix costs flag checks, not
a flatten.  The Parent lookups and the IE marks are then built from
per-vertex ranges, already in flat order (vertex by vertex, positions
ascending), which the LRU cache's hits depend on.  Without SEW every
edge is examined and one round takes the whole segments.
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
    # With SEW a vertex's candidate is its first external edge: rounds
    # of segment chunks find it (module docstring), and every position
    # from the scan start up to it is looked up.  With SIE on the scan
    # starts at the vertex's cursor (SimState.scan_from): the IE flags
    # are exactly the prefix before it, so that prefix is flag checks
    # only and no flag lies at or past it.  Without SEW the candidate is
    # the minimum (weight, eid) external edge: one round of whole
    # segments, whose flags need not form a prefix.
    sew = cfg.sort_edges_by_weight
    sie = cfg.skip_intra_edges
    edges_per_block = max(BLOCK_BYTES // cfg.edge_bytes, 1)
    seg_lo = g.indptr[vs]
    end = g.indptr[vs + 1]
    marked = None
    if sew:
        start = state.scan_from[vs] if sie else seg_lo
        first = _first_external(state, roots_all, src_comp_per_v, start,
                                end, edges_per_block)
        found = first < end
        fetched = concat_ranges(start, first + found)
        n_skipped_ie = int((start - seg_lo).sum())
        n_examined = n_skipped_ie + fetched.size
        n_external = int(np.count_nonzero(found))
        cand_flat = first[found]
        if sie:
            marked = concat_ranges(start, first)
            state.scan_from[vs] = first
    else:
        lens = end - seg_lo
        seg_id = np.repeat(np.arange(vs.size, dtype=np.int64), lens)
        flat = concat_ranges(seg_lo, end)  # global half-edge indices
        flags = state.ie[flat] if sie else np.zeros(flat.size, dtype=bool)
        # Functional external test uses resolved roots; the per-lookup
        # cost of chasing stale (frozen IV) parent chains is charged
        # below.
        external = ~flags & (
            roots_all[g.dst[flat]] != src_comp_per_v[seg_id])
        with state.timers.section("kernel.fm_scan"):
            _, found, _, cand_local = numpy_impl.fm_scan(
                external, segment_offsets(lens), seg_id, g.weight[flat],
                g.eid[flat], False)
        lookup = ~flags
        fetched = flat[lookup]
        n_examined = flat.size
        n_skipped_ie = flat.size - fetched.size
        n_external = int(np.count_nonzero(external))
        cand_flat = flat[cand_local[found]]
        if sie:
            marked = flat[lookup & ~external]
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
    if marked is not None and marked.size:
        state.ie[marked] = True
        ev.add("fm.ie_marks", marked.size)
        num_wb_blocks = count_distinct(marked // edges_per_block, block_space)
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


def _first_external(
    state: SimState,
    roots_all: np.ndarray,
    comp: np.ndarray,
    lo: np.ndarray,
    end: np.ndarray,
    chunk: int,
) -> np.ndarray:
    """First half-edge of each segment ``[lo, end)`` whose endpoint lies
    outside the vertex's component ``comp``, or ``end`` when none does.

    One round per ``numpy_impl.fm_scan`` call: ``chunk`` edges of every
    segment, then twice the previous chunk of each segment still without
    an external edge.
    """
    dst = state.graph.dst
    first = end.copy()
    act = np.flatnonzero(lo < end)  # segments still scanning
    lo, end = lo[act], end[act]
    no_ids, no_weights = np.empty(0, np.int64), np.empty(0, np.float64)
    while act.size:
        hi = np.minimum(lo + chunk, end)
        lens = hi - lo
        flat = concat_ranges(lo, hi)
        external = roots_all[dst[flat]] != np.repeat(comp[act], lens)
        with state.timers.section("kernel.fm_scan"):
            _, hit, _, cand = numpy_impl.fm_scan(
                external, segment_offsets(lens), no_ids, no_weights,
                no_ids, True)
        first[act[hit]] = flat[cand[hit]]
        more = ~hit & (hi < end)
        act, lo, end = act[more], hi[more], end[more]
        chunk *= 2
    return first


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
