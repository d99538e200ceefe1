"""The simulator's kernels: the hot loops of one run, in NumPy.

These are the algorithms behind ``SimState._recompute_roots``, the
Finding Module's segment scan, the RAPE mirror test, the Compressing
Module commit and the LRU replay, plus the union-find loops that
``repro.mst`` shares.  The simulator reaches them through the per-run
:class:`~repro.kernels.dispatch.KernelDispatch`, which counts and times
every call.  ``tests/verify/test_kernel_identity.py`` checks each
function against an independent scalar reference.

Imports from ``repro.core`` are deferred into function bodies: the
kernels package must be importable mid-way through ``repro.core``'s own
import (``SimState`` pulls the dispatcher in), so no module-level
dependency on ``repro.core`` is allowed here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "resolve_roots",
    "pointer_jump",
    "find_many",
    "kruskal_union",
    "lru_replay",
    "fm_scan",
    "rape_mirrors",
    "cm_commit",
]


def resolve_roots(parent):
    """Subset pointer jumping: chase only still-unresolved vertices.

    Each pass doubles the pointer of the pending subset, so the cost is
    O(unresolved · log depth) instead of a full-array sweep per level.
    """
    cur = parent.copy()
    pending = np.flatnonzero(cur[cur] != cur)
    while pending.size:
        cur[pending] = cur[cur[pending]]
        sub = cur[pending]
        pending = pending[cur[sub] != sub]
    return cur


def pointer_jump(parent):
    """Iterated ``parent = parent[parent]`` to the fixed point, in place."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        np.copyto(parent, nxt)


def find_many(parent, xs):
    """Batched root lookup by repeated gather (read-only)."""
    roots = parent[xs]
    while True:
        nxt = parent[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


def kruskal_union(n, u, v, w):
    """Kruskal's union loop over edges already in ``(weight, id)`` order.

    Returns ``(chosen, num_components, total)`` where ``chosen[e]`` marks
    accepted edges (positions in the given order), and ``total`` is the
    running float64 sum accumulated *in acceptance order*.  Union-find is
    inherently sequential, so this stays a scalar loop (union by rank,
    path halving); the DSU internals cannot change the accepted edge
    set, which only depends on connectivity.
    """
    m = u.shape[0]
    parent = np.arange(n, dtype=np.int64)
    rank = np.zeros(n, np.int8)
    chosen = np.zeros(m, np.bool_)
    comps = n
    total = 0.0
    for e in range(m):
        a = u[e]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        b = v[e]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if rank[a] < rank[b]:
                a, b = b, a
            parent[b] = a
            if rank[a] == rank[b]:
                rank[a] += 1
            comps -= 1
            chosen[e] = True
            total += w[e]
            if comps == 1:
                break
    return chosen, comps, total


def lru_replay(ids, tags, stamps, clock, nsets, ways):
    """Vectorized set-partitioned LRU replay (lockstep rounds).

    Accesses are grouped by set (stable ``argsort``) and each set's
    stream replays in rounds: round ``r`` applies the ``r``-th access of
    every active set at once, so the Python loop runs
    max-stream-length times instead of once per access.  Per-access
    clocks are assigned in original stream order, making tags, stamps,
    hit flags and eviction counts byte-identical to the scalar model.
    Mutates ``tags`` / ``stamps`` in place; returns
    ``(hits, evictions, clock)``.
    """
    n = ids.shape[0]
    hits = np.empty(n, dtype=bool)
    if n == 0:
        return hits, 0, clock
    base = clock
    clock += n
    set_of = ids % nsets
    order = np.argsort(set_of, kind="stable")  # keeps in-set order
    ids_s = ids[order]
    clk_s = base + 1 + order  # exact scalar per-access clocks
    set_s = set_of[order]

    # per-set segments in the sorted stream
    k = np.arange(n, dtype=np.int64)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(set_s[1:], set_s[:-1], out=is_start[1:])
    seg_start = k[is_start]
    seg_idx = np.cumsum(is_start) - 1  # owning segment per element
    counts = np.diff(np.concatenate((seg_start, [n])))
    # longest streams first so each round's active rows are a prefix
    by_len = np.argsort(-counts, kind="stable")
    rank = np.empty(by_len.size, dtype=np.int64)
    rank[by_len] = np.arange(by_len.size, dtype=np.int64)
    su = set_s[seg_start][by_len]
    counts = counts[by_len]
    num_rows = su.size
    num_rounds = int(counts[0])

    # round-major padded layout: element k of the sorted stream lands at
    # (its in-set position, row of its set), so round r is the
    # contiguous slice vals[r, :active]
    row = rank[seg_idx]
    col = k - seg_start[seg_idx]
    vals = np.empty((num_rounds, num_rows), dtype=np.int64)
    vals[col, row] = ids_s
    clks = np.empty((num_rounds, num_rows), dtype=np.int64)
    clks[col, row] = clk_s
    hit_mat = np.empty((num_rounds, num_rows), dtype=bool)
    # active rows per round (counts descending => prefix); padded cells
    # sit at inactive rows, so they are never read or written
    active = np.searchsorted(
        -counts, -np.arange(num_rounds, dtype=np.int64), side="left"
    )

    wtags = tags[su]  # (active sets, ways) working copies
    wstamps = stamps[su]
    ways_n = wtags.shape[1]
    tags_flat = wtags.reshape(-1)
    stamps_flat = wstamps.reshape(-1)
    row_base = np.arange(num_rows, dtype=np.int64) * ways_n
    cmp_buf = np.empty((num_rows, ways_n), dtype=bool)
    evictions = 0
    for r in range(num_rounds):
        a = active[r]
        v = vals[r, :a]
        hit_rows = np.equal(wtags[:a], v[:, None], out=cmp_buf[:a])
        is_hit = hit_rows.any(axis=1)
        # hit: refresh the matching way; miss: evict the min-stamp way
        # (argmax/argmin take the first index, matching the scalar
        # model's flatnonzero[0] / argmin tie-breaks)
        way = np.where(
            is_hit, hit_rows.argmax(axis=1), wstamps[:a].argmin(axis=1)
        )
        flat = row_base[:a] + way
        evictions += int(np.count_nonzero(~is_hit & (tags_flat[flat] >= 0)))
        tags_flat[flat] = v
        stamps_flat[flat] = clks[r, :a]
        hit_mat[r, :a] = is_hit

    tags[su] = wtags
    stamps[su] = wstamps
    hits[order] = hit_mat[col, row]
    return hits, evictions, clock


def fm_scan(external, offsets, seg_id, w, eid, sew):
    """Finding Module per-vertex edge-segment scan (Fig 7 Steps ①-⑤).

    ``external`` flags each flattened edge position; ``offsets`` bounds
    segment ``s`` at ``[offsets[s], offsets[s+1])``.  Returns per
    segment: ``first`` (flat index of the first external edge, or the
    segment end when none), ``found``, ``exam_end`` (exclusive end of
    the examined prefix — SEW stops after the first external edge) and
    ``cand`` (flat index of the selected candidate edge, ``-1`` when the
    segment has no external edge).  Without SEW the candidate is the
    minimum ``(weight, eid)`` external edge, earliest position on exact
    ties; ``w`` / ``eid`` / ``seg_id`` are only read on that path.
    """
    from ..core.utils import segment_first

    k = offsets.shape[0] - 1
    first = segment_first(external, offsets)
    found = first < offsets[1:]
    if sew:
        exam_end = np.where(found, first + 1, offsets[1:])
        cand = np.where(found, first, np.int64(-1))
    else:
        exam_end = offsets[1:].copy()
        cand = np.full(k, -1, dtype=np.int64)
        ext_pos = np.flatnonzero(external)
        if ext_pos.size:
            # minimum (weight, eid) external edge per segment; stable
            # lexsort keeps the earliest flat position on exact ties
            order = np.lexsort((eid[ext_pos], w[ext_pos], seg_id[ext_pos]))
            sid = seg_id[ext_pos][order]
            keep = np.ones(order.size, dtype=bool)
            keep[1:] = sid[1:] != sid[:-1]
            cand[sid[keep]] = ext_pos[order[keep]]
    return first, found, exam_end, cand


def rape_mirrors(me_eid, cand, tgt):
    """Vectorized Stage-2 mirror test (same-eid mutual minimum)."""
    return (me_eid[tgt] == me_eid[cand]) & (cand < tgt)


def cm_commit(parent, roots, root_final, leaf_ids):
    """Vectorized CM commit: refresh roots, double-hop live leaves.

    Returns a fresh Parent array.  The leaf gather reads the
    post-root-update array *before* any leaf write lands (NumPy
    fancy-index semantics): a leaf whose parent is another hooked leaf
    reads that leaf's pre-pass pointer.
    """
    out = parent.copy()
    out[roots] = root_final
    if leaf_ids.size:
        out[leaf_ids] = out[out[leaf_ids]]
    return out
