"""The simulator's kernels: the hot loops of one run, in NumPy.

These are the algorithms behind ``SimState._recompute_roots``, the
Finding Module's segment scan, the RAPE mirror test, the Compressing
Module commit and the LRU replay (reuse-window scans for LRU stack
distance, with the root resolution's pointer jumping assigning ways),
plus the union-find loops that ``repro.mst`` shares.  The simulator
calls them as attributes of this module (the binding a wrapper
installed here replaces), each inside a ``kernel.<name>`` section of
the run's :class:`~repro.core.timing.HostTimers`, which counts and
times every call.  ``tests/verify/test_kernel_identity.py`` checks each
function against an independent scalar reference.

Imports from ``repro.core`` are deferred into function bodies: the
kernels package must be importable mid-way through ``repro.core``'s own
import (``SimState`` pulls this module in), so no module-level
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
    return _chase_roots(cur, np.flatnonzero(cur[cur] != cur))


def _chase_roots(cur, pending):
    """Pointer-jump ``cur[pending]`` in place until each reaches a root."""
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


#: look-back positions the first scan pass covers for every row at once;
#: the few accesses it leaves open continue in doubling windows
_FIRST_WINDOW = 16


def lru_replay(ids, tags, stamps, clock, nsets, ways):
    """Set-associative LRU replay of one batch by reuse-window scans.

    LRU stack distance (Mattson et al., 1970): an access to a block last
    touched at ``p`` hits iff fewer than ``ways`` distinct blocks of its
    set were touched since ``p``; a miss evicts the ``ways``-th most
    recently touched one.  Each set's accesses follow its current
    entries in LRU order (``(stamp, way)`` ascending, the scalar
    model's ``argmin`` order; an empty way is a pseudo block), and each
    access scans back counting rows whose block is not touched again
    before it.  Tags, stamps, clock, hit flags and eviction counts are
    byte-identical to the scalar model (docs/PERFORMANCE.md, hot path
    1).  Mutates ``tags`` / ``stamps`` in place; returns ``(hits,
    evictions, clock)``.  An id outside ``[0, 2**31)`` raises
    ``ValueError``.
    """
    n = ids.shape[0]
    hits = np.empty(n, dtype=bool)
    if n == 0:
        return hits, 0, clock
    if ids.min() < 0 or ids.max() >= 1 << 31:
        raise ValueError("lru_replay takes vertex ids in [0, 2**31)")

    # segments: per active set, `ways` seed rows then its accesses
    set_of = (ids % nsets).astype(np.min_scalar_type(nsets - 1))
    order = np.argsort(set_of, kind="stable")  # keeps in-set order
    set_s = set_of[order]
    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(set_s[1:], set_s[:-1], out=is_first[1:])
    first = np.flatnonzero(is_first)
    active = set_s[first].astype(np.int64)
    nseg = active.size
    total = n + nseg * ways  # positions are int32: fine below 2**31 rows
    seg_start = (first + np.arange(nseg) * ways).astype(np.int32)
    seg_of = np.cumsum(is_first, dtype=np.int32) - 1  # per sorted access
    acc_pos = np.arange(n, dtype=np.int32) + (seg_of + 1) * ways
    lru = np.argsort(stamps[active], axis=1, kind="stable")
    seed = tags[active[:, None], lru].reshape(-1)
    np.copyto(seed, np.arange(-seed.size, 0), where=seed < 0)  # pseudo
    blk = np.empty(total, dtype=np.int64)
    blk[acc_pos] = ids[order]
    blk[(seg_start[:, None] + np.arange(ways)).reshape(-1)] = seed

    # next touch of each row's block: one sort of (block, position)
    # keys, positions in the low bits (both below 2**31: no overflow)
    pos = np.arange(total, dtype=np.int32)
    shift = int(total).bit_length()
    key = (blk + seed.size) << shift | pos
    key.sort()
    by_blk = (key & ((1 << shift) - 1)).astype(np.int32)
    key >>= shift
    same = np.flatnonzero(key[1:] == key[:-1])
    nxt = np.full(total, total, dtype=np.int32)
    nxt[by_blk[same]] = by_blk[same + 1]
    prev = np.full(total, -1, dtype=np.int32)
    prev[by_blk[same + 1]] = by_blk[same]
    # the scan stops at the previous touch, else before the seeds
    lim = np.maximum(prev[acc_pos], seg_start[seg_of] - 1)

    # first window, every row at once: row i - t counts for row i iff
    # its gap to its block's next touch exceeds t; `below` counts the
    # offsets scanned before the count reached `ways` (every offset
    # below `ways` is, as t offsets count at most t rows)
    gap = nxt - pos
    cdt = np.min_scalar_type(max(ways, _FIRST_WINDOW))
    count = np.zeros(total, dtype=cdt)
    below = np.full(total, min(ways, _FIRST_WINDOW + 1) - 1, dtype=cdt)
    for t in range(1, _FIRST_WINDOW + 1):
        c = count[t:]
        c += gap[:-t] > t
        if t >= ways:
            below[t:] += c < ways
    reached = count[acc_pos] >= ways
    vic = np.where(reached, acc_pos - 1 - below[acc_pos], -1)

    # the rest, in doubling windows, while the next position to scan is
    # still after the limit
    todo = np.flatnonzero(~reached & (acc_pos - _FIRST_WINDOW - 1 > lim))
    row, stop = acc_pos[todo], lim[todo]
    seen = count[row].astype(np.int32)
    off = width = _FIRST_WINDOW
    while todo.size:
        back = np.arange(off + 1, off + width + 1, dtype=np.int32)
        live = np.take(nxt, row[:, None] - back, mode="clip") > row[:, None]
        c = np.cumsum(live, axis=1, dtype=np.int32)
        c += seen[:, None]
        done = c[:, -1] >= ways
        vic[todo[done]] = row[done] - back[np.argmax(c[done] >= ways, axis=1)]
        keep = ~done & (row - (off + width) - 1 > stop)
        todo, row, stop = todo[keep], row[keep], stop[keep]
        seen = c[keep, -1]
        off += width
        width *= 2

    miss = vic > lim  # a victim at or before the previous touch: a hit
    hits[order] = ~miss
    evictions = int(np.count_nonzero(blk[vic[miss]] >= 0))

    # ways: a hit keeps the way of its block's previous touch and a miss
    # takes its victim's; pointer jumping resolves every access to the
    # seed row at the head of its chain, whose way is known
    link = pos.copy()
    link[acc_pos] = np.where(miss, vic, lim)
    root = _chase_roots(link, acc_pos)

    # final state: the rows no later row touches again or evicts are the
    # residents, `ways` per segment; each one touched in this batch
    # rewrites its way
    evicted = np.zeros(total, dtype=bool)
    evicted[vic[miss]] = True
    row = np.flatnonzero((nxt == total) & ~evicted)
    seg = np.arange(row.size) // ways
    new = row - seg_start[seg] >= ways
    row, seg = row[new], seg[new]
    way = lru[seg, root[row] - seg_start[seg]]
    tags[active[seg], way] = blk[row]
    stamps[active[seg], way] = clock + 1 + order[row - (seg + 1) * ways]
    return hits, evictions, clock + n


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
