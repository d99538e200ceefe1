"""Incremental minimum-spanning-forest maintenance under edge updates.

:class:`IncrementalMst` keeps the *exact* minimum spanning forest of a
:class:`~repro.incremental.dynamic.DynamicGraph` — exact under the
repo-wide strict ``(weight, eid)`` total order, so after any update
sequence the maintained forest is byte-identical to running
:func:`~repro.mst.kruskal.kruskal` on the materialized graph from
scratch (the property suite in ``tests/incremental/`` pins this at
every step).

Updates are resolved one edge at a time with the classic exchange
arguments:

* **insertion** (cycle property): if the endpoints are in different
  components the edge joins the forest outright; otherwise the maximum
  ``(w, id)`` edge on the unique tree path between the endpoints is
  found with a stamped parent-walk and swapped out iff the new edge
  beats it;
* **deletion** (cut property): deleting a non-forest edge is free;
  deleting a forest edge splits its tree, and the minimum ``(w, id)``
  edge crossing the cut — found with one vectorized scan restricted to
  the two cut components — reconnects it, or the component count grows.

The rooted-forest bookkeeping (``parent``/``parent_eid`` arrays plus a
per-vertex adjacency of tree edges) is repaired locally: path reversal
for re-rooting, smaller-side relabelling for component labels (a merge
finds that side by a label scan), so Python work per update stays local.
When a batch is too large for that to pay off — more updates than
``fallback_fraction`` of the live edges, or the touched region grows
past the same fraction mid-batch — the engine falls back to one full
(cached, kernel-backed) Kruskal recompute.

Delta caching: each applied batch advances the graph's state
fingerprint chain, and the resulting forest is stored under
``delta:{state_fp}:{batch_fp}`` in the
:class:`~repro.bench.runcache.RunCache`, so replaying a previously seen
update stream restores the forest without any MST work.

Telemetry: with ambient telemetry active, ``apply`` folds per-batch
counts into the ``incremental.*`` namespace (edges touched, components
replayed, fallbacks, ...); the namespace is skipped by the ``runs
diff`` regression gate like every other workload-dependent family.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..bench.runcache import RunCache, cached_reference
from ..graph.csr import CSRGraph
from ..mst.forest import acyclic_roots, root_forest
from ..mst.kruskal import kruskal
from ..mst.result import MSTResult
from ..obs.context import current_telemetry
from .dynamic import DynamicGraph, UpdateBatch, _GrowArray

__all__ = [
    "IncrementalConfig",
    "BatchStats",
    "IncrementalError",
    "IncrementalMst",
]


class IncrementalError(RuntimeError):
    """The maintained forest violated an invariant (corrupt state)."""


@dataclass(frozen=True)
class IncrementalConfig:
    """Engine policy knobs (deliberately *not* part of ``AmstConfig`` —
    they never change a result, only how it is computed, so they must
    not perturb config fingerprints or cached run keys)."""

    #: batch size or touched-region size beyond this fraction of the
    #: live edge count triggers a full recompute instead of per-edge
    #: repair (docs/INCREMENTAL.md, "Fallback policy")
    fallback_fraction: float = 0.25
    #: validate invariants + oracle byte-identity after every batch
    verify: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.fallback_fraction <= 1.0):
            raise ValueError("fallback_fraction must be in (0, 1]")


@dataclass
class BatchStats:
    """Per-batch accounting ``IncrementalMst.apply`` returns."""

    inserts: int = 0
    deletes: int = 0
    edges_touched: int = 0  # path edges walked + cut candidates scanned
    components_replayed: int = 0  # structural repairs (per affected op)
    swaps: int = 0  # insertions that displaced a tree-path maximum
    merges: int = 0  # insertions that joined two components
    replacements: int = 0  # deletions healed by a crossing edge
    disconnections: int = 0  # deletions that split a component
    fallback: bool = False
    cache_hit: bool = False
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "inserts": self.inserts,
            "deletes": self.deletes,
            "edges_touched": self.edges_touched,
            "components_replayed": self.components_replayed,
            "swaps": self.swaps,
            "merges": self.merges,
            "replacements": self.replacements,
            "disconnections": self.disconnections,
            "fallback": self.fallback,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
        }


@dataclass
class _Totals:
    """Engine-lifetime counters (mirrored into ``incremental.*``)."""

    batches: int = 0
    fallbacks: int = 0
    cache_hits: int = 0
    edges_touched: int = 0
    components_replayed: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class IncrementalMst:
    """Maintains the exact MSF of a mutable graph across update batches.

    Parameters
    ----------
    graph:
        Base graph; the engine owns a :class:`DynamicGraph` over it.
    config:
        :class:`IncrementalConfig` policy (fallback threshold, verify).
    cache:
        Optional :class:`~repro.bench.runcache.RunCache` for the
        ``delta:`` tier and the cached full recompute.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        config: IncrementalConfig | None = None,
        cache: RunCache | None = None,
    ) -> None:
        self.config = config or IncrementalConfig()
        self.cache = cache
        self.dyn = DynamicGraph(graph)
        self.totals = _Totals()
        n = graph.num_vertices
        self._in_forest = _GrowArray(
            np.zeros(self.dyn.total_edges, dtype=bool))
        self._parent = np.arange(n, dtype=np.int64)
        self._parent_eid = np.full(n, -1, dtype=np.int64)
        self._comp = np.arange(n, dtype=np.int64)
        self._comp_size: dict[int, int] = {}
        self._tree_adj: list[dict[int, int]] = [{} for _ in range(n)]
        self._next_label = n  # fresh labels for split-off components
        self._full_recompute()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def num_forest_edges(self) -> int:
        return self._forest_count

    @property
    def num_components(self) -> int:
        return self.dyn.num_vertices - self._forest_count

    def graph(self) -> CSRGraph:
        """The current graph, materialized (lazy, cached)."""
        return self.dyn.to_csr()

    def forest(self) -> MSTResult:
        """The maintained forest as a canonical :class:`MSTResult`.

        Byte-identical to ``kruskal(self.graph())``: compact edge ids,
        and the total weight accumulated in the same ``(w, eid)``
        acceptance order Kruskal uses, so even the float rounding
        matches.
        """
        internal = np.flatnonzero(self._in_forest.view)
        compact = self.dyn.internal_to_compact(internal)
        w = self.dyn.ew[internal]
        total = 0.0
        for x in w[np.lexsort((compact, w))].tolist():
            total += x
        return MSTResult(edge_ids=compact, total_weight=total,
                         num_components=self.num_components)

    def apply(self, batch: UpdateBatch, *,
              verify: bool | None = None) -> BatchStats:
        """Apply one update batch; returns per-batch statistics.

        Updates are sequenced delete-by-delete then insert-by-insert,
        each step preserving forest exactness, so the final forest is
        the exact MSF of the final graph regardless of batch makeup.
        ``verify`` (default :attr:`IncrementalConfig.verify`) runs the
        structural invariant check *and* the from-scratch Kruskal
        oracle after the batch, raising :class:`IncrementalError` on
        any divergence.
        """
        t0 = time.perf_counter()
        stats = BatchStats(inserts=batch.num_inserts,
                           deletes=batch.num_deletes)
        m_before = self.dyn.num_edges
        key = None
        if self.cache is not None:
            key = (f"delta:{self.dyn.state_fingerprint}:"
                   f"{batch.fingerprint()}")
            snapshot = self.cache.get(key)
            if snapshot is not None:
                self.dyn.apply(batch)
                self._extend_forest_mask()
                self._restore(snapshot)
                stats.cache_hit = True
            else:
                self.cache.note_miss(key)

        if not stats.cache_hit:
            budget = max(1.0,
                         self.config.fallback_fraction * max(m_before, 1))
            if len(batch) >= budget:
                self.dyn.apply(batch)
                self._extend_forest_mask()
                self._full_recompute()
                stats.fallback = True
            else:
                stats.fallback = self._apply_sequenced(batch, stats,
                                                       budget)
            if key is not None:
                self.cache.put(key, self._snapshot())
        if verify if verify is not None else self.config.verify:
            self.check_invariants()
            self.verify_against_oracle()
        self._finish(stats, t0)
        return stats

    def check_invariants(self) -> None:
        """Validate the full forest structure; raises on corruption.

        Pointer doubling (:func:`~repro.mst.forest.acyclic_roots`)
        proves the parent pointers acyclic; whole-array checks then
        prove one root per component, that each non-root's
        ``parent_eid`` is an alive forest edge joining it to its parent
        and no forest edge serves two children (so the parent structure
        *is* the forest), labels constant per tree and distinct across
        trees, and the size ledger.  ``tests/incremental/test_faults.py``
        corrupts each of these, and a repair, in turn.
        """
        dyn = self.dyn
        n = dyn.num_vertices
        mask = self._in_forest.view
        f = int(np.count_nonzero(mask))
        if f != self._forest_count:
            raise IncrementalError(
                f"forest count drifted: mask has {f}, "
                f"engine says {self._forest_count}")
        if not dyn.alive[mask].all():
            raise IncrementalError("forest contains a dead edge")
        parent, parent_eid = self._parent, self._parent_eid
        if n and (parent.min() < 0 or parent.max() >= n):
            raise IncrementalError("parent pointer out of range")
        root_of = acyclic_roots(parent)
        if root_of is None:
            raise IncrementalError("cycle in the parent pointers")
        is_root = parent == np.arange(n)
        roots, child = np.flatnonzero(is_root), np.flatnonzero(~is_root)
        if roots.size != n - f:
            raise IncrementalError(
                f"{roots.size} parent roots for {n - f} components")
        eid = parent_eid[child]
        # f children, f forest edges: equal sorted lists mean one each
        if not np.array_equal(np.sort(eid), np.flatnonzero(mask)):
            raise IncrementalError(
                "parent_eid names a non-forest edge or shares one")
        a, b, p = dyn.eu[eid], dyn.ev[eid], parent[child]
        if not (((a == child) & (b == p)) | ((b == child) & (a == p))).all():
            raise IncrementalError("parent_eid does not join its parent")
        if not np.array_equal(self._comp, self._comp[root_of]):
            raise IncrementalError("component label changes mid-tree")
        if np.unique(self._comp[roots]).size != roots.size:
            raise IncrementalError("duplicate component label on roots")
        labels, counts = np.unique(self._comp, return_counts=True)
        sizes = dict(zip(labels.tolist(), counts.tolist()))
        if sizes != self._comp_size:
            raise IncrementalError("component size ledger drifted")

    def verify_against_oracle(self) -> None:
        """Byte-identity against from-scratch Kruskal; raises on drift."""
        expected = kruskal(self.graph())
        got = self.forest()
        if (not np.array_equal(got.edge_ids, expected.edge_ids)
                or repr(got.total_weight) != repr(expected.total_weight)
                or got.num_components != expected.num_components):
            raise IncrementalError(
                "incremental forest diverged from the Kruskal oracle: "
                f"{got.num_edges} vs {expected.num_edges} edges, "
                f"weight {got.total_weight!r} vs "
                f"{expected.total_weight!r}, "
                f"{got.num_components} vs {expected.num_components} "
                "component(s)")

    # ------------------------------------------------------------------
    # Batch sequencing
    # ------------------------------------------------------------------
    def _apply_sequenced(self, batch: UpdateBatch, stats: BatchStats,
                         budget: float) -> bool:
        """Per-edge processing; returns True if it fell back mid-batch."""
        dyn = self.dyn
        fallback = False
        for internal in dyn.resolve_deletes(batch.delete_eids).tolist():
            dyn.kill(internal)
            if not fallback:
                self._delete_edge(internal, stats)
                fallback = stats.edges_touched >= budget * _TOUCH_SCALE
        for u, v, w in zip(batch.insert_u.tolist(),
                           batch.insert_v.tolist(),
                           batch.insert_w.tolist()):
            internal = dyn.append(u, v, w)
            self._extend_forest_mask()
            if not fallback:
                self._insert_edge(internal, u, v, w, stats)
                fallback = stats.edges_touched >= budget * _TOUCH_SCALE
        dyn.finish_batch(batch)
        if fallback:
            self._full_recompute()
        return fallback

    def _finish(self, stats: BatchStats, t0: float) -> None:
        stats.seconds = time.perf_counter() - t0
        t = self.totals
        t.batches += 1
        t.edges_touched += stats.edges_touched
        t.components_replayed += stats.components_replayed
        t.fallbacks += int(stats.fallback)
        t.cache_hits += int(stats.cache_hit)
        tel = current_telemetry()
        if tel is not None:
            m = tel.metrics
            m.inc("incremental.batches")
            m.inc("incremental.inserts", stats.inserts)
            m.inc("incremental.deletes", stats.deletes)
            m.inc("incremental.edges_touched", stats.edges_touched)
            m.inc("incremental.components_replayed",
                  stats.components_replayed)
            m.inc("incremental.swaps", stats.swaps)
            m.inc("incremental.merges", stats.merges)
            m.inc("incremental.replacements", stats.replacements)
            m.inc("incremental.disconnections", stats.disconnections)
            m.inc("incremental.fallbacks", int(stats.fallback))
            m.inc("incremental.cache_hits", int(stats.cache_hit))

    # ------------------------------------------------------------------
    # Delta-cache snapshots
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        """Forest state under the current state fingerprint (picklable)."""
        return {
            "state_fp": self.dyn.state_fingerprint,
            "forest_internal": np.flatnonzero(self._in_forest.view),
            "comp": self._comp.copy(),
            "next_label": self._next_label,
        }

    def _restore(self, snapshot: dict) -> None:
        if snapshot["state_fp"] != self.dyn.state_fingerprint:
            raise IncrementalError(
                "delta-cache snapshot fingerprint mismatch")
        mask = self._in_forest.view
        mask[:] = False
        mask[snapshot["forest_internal"]] = True
        self._comp = snapshot["comp"].copy()
        self._next_label = int(snapshot["next_label"])
        self._rebuild_structure(snapshot["forest_internal"])

    # ------------------------------------------------------------------
    # Full recompute + structure (re)build
    # ------------------------------------------------------------------
    def _extend_forest_mask(self) -> None:
        """Append ``False`` to the forest mask up to the edge ledger."""
        self._in_forest.append(np.zeros(
            self.dyn.total_edges - self._in_forest.size, dtype=bool))

    def _full_recompute(self) -> None:
        """Forest from scratch via (cached) Kruskal."""
        g = self.dyn.to_csr()
        res = cached_reference(g, "kruskal", kruskal, cache=self.cache)
        mask = self._in_forest.view
        mask[:] = False
        internal = self.dyn.compact_to_internal()[res.edge_ids]
        mask[internal] = True
        self._comp = None  # rebuilt below from the forest itself
        self._rebuild_structure(internal, fresh_labels=True)

    def _rebuild_structure(self, internal: np.ndarray,
                           fresh_labels: bool = False) -> None:
        """Parent arrays + tree adjacency from a forest edge set.

        One :func:`~repro.mst.forest.root_forest` call roots every tree
        at its smallest vertex and assigns ``parent``/``parent_eid``
        (with ``fresh_labels`` also the component labels).  Raises
        :class:`IncrementalError` if the edge set is not a forest.
        """
        dyn = self.dyn
        n = dyn.num_vertices
        internal = np.asarray(internal, dtype=np.int64)
        self._forest_count = int(internal.size)
        a, b = dyn.eu[internal], dyn.ev[internal]
        try:
            parent, parent_edge, _, labels = root_forest(n, a, b)
        except ValueError:
            raise IncrementalError(
                "edge set handed to the forest rebuild has a cycle"
            ) from None
        if fresh_labels:
            self._comp = labels
            self._next_label = n
        lab_all, cnt_all = np.unique(self._comp, return_counts=True)
        self._comp_size = dict(zip(lab_all.tolist(), cnt_all.tolist()))
        self._tree_adj = [{} for _ in range(n)]
        adj = self._tree_adj
        for x, y, e in zip(a.tolist(), b.tolist(), internal.tolist()):
            adj[x][y] = e
            adj[y][x] = e
        self._parent = parent
        # a root's parent_edge of -1 picks the appended -1
        self._parent_eid = np.append(internal, -1)[parent_edge]

    # ------------------------------------------------------------------
    # Per-edge repair: insertion
    # ------------------------------------------------------------------
    def _insert_edge(self, internal: int, u: int, v: int, w: float,
                     stats: BatchStats) -> None:
        if u == v:
            return  # self-loops live in the graph, never in any MSF
        cu, cv = int(self._comp[u]), int(self._comp[v])
        if cu != cv:
            self._merge(internal, u, v, cu, cv, stats)
            return
        best, touched = self._path_max(u, v)
        stats.edges_touched += touched
        ew = self.dyn.ew
        bw = float(ew[best])
        if (w, internal) < (bw, best):
            self._swap(internal, u, v, best, stats)

    def _merge(self, internal: int, u: int, v: int, cu: int, cv: int,
               stats: BatchStats) -> None:
        """Cross-component insertion: attach the smaller component."""
        if self._comp_size[cv] <= self._comp_size[cu]:
            x, y, small, big = v, u, cv, cu
        else:
            x, y, small, big = u, v, cu, cv
        members = np.flatnonzero(self._comp == small)
        stats.edges_touched += members.size
        self._reroot(x)
        self._parent[x] = y
        self._parent_eid[x] = internal
        self._comp[members] = big
        self._comp_size[big] += self._comp_size.pop(small)
        self._tree_adj[u][v] = internal
        self._tree_adj[v][u] = internal
        self._in_forest.view[internal] = True
        self._forest_count += 1
        stats.merges += 1
        stats.components_replayed += 1

    def _swap(self, internal: int, u: int, v: int, old: int,
              stats: BatchStats) -> None:
        """Same-component insertion beating the tree-path maximum."""
        dyn = self.dyn
        a, b = int(dyn.eu[old]), int(dyn.ev[old])
        self._in_forest.view[old] = False
        del self._tree_adj[a][b]
        del self._tree_adj[b][a]
        c = a if self._parent_eid[a] == old else b
        self._parent[c] = c
        self._parent_eid[c] = -1
        # exactly one endpoint of the new edge lies in the detached
        # subtree (the u-v path crossed the removed edge once)
        x, y = (u, v) if self._walk_root(u) == c else (v, u)
        self._reroot(x)
        self._parent[x] = y
        self._parent_eid[x] = internal
        self._tree_adj[u][v] = internal
        self._tree_adj[v][u] = internal
        self._in_forest.view[internal] = True
        stats.swaps += 1
        stats.components_replayed += 1

    # ------------------------------------------------------------------
    # Per-edge repair: deletion
    # ------------------------------------------------------------------
    def _delete_edge(self, internal: int, stats: BatchStats) -> None:
        if not self._in_forest.view[internal]:
            return  # non-forest edges leave the MSF untouched
        dyn = self.dyn
        a, b = int(dyn.eu[internal]), int(dyn.ev[internal])
        self._in_forest.view[internal] = False
        self._forest_count -= 1
        del self._tree_adj[a][b]
        del self._tree_adj[b][a]
        c = a if self._parent_eid[a] == internal else b
        other = b if c == a else a
        self._parent[c] = c
        self._parent_eid[c] = -1
        comp0 = int(self._comp[a])
        side = self._smaller_side(c, other)
        stats.edges_touched += len(side)
        best, scanned = self._find_replacement(side, comp0)
        stats.edges_touched += scanned
        if best >= 0:
            in_side = side  # set of vertices on the smaller side
            x = int(dyn.eu[best])
            y = int(dyn.ev[best])
            if x not in in_side:
                x, y = y, x
            self._reroot(x)
            self._parent[x] = y
            self._parent_eid[x] = best
            self._tree_adj[x][y] = best
            self._tree_adj[y][x] = best
            self._in_forest.view[best] = True
            self._forest_count += 1
            stats.replacements += 1
        else:
            label = self._next_label
            self._next_label += 1
            members = np.fromiter(side, count=len(side), dtype=np.int64)
            self._comp[members] = label
            self._comp_size[comp0] -= len(side)
            self._comp_size[label] = len(side)
            stats.disconnections += 1
        stats.components_replayed += 1

    def _find_replacement(self, side: set, comp0: int) -> tuple[int, int]:
        """Minimum ``(w, id)`` alive edge crossing the cut, or ``-1``.

        Restricted to the deleted edge's old component: one vectorized
        scan of the edge ledger, masked to edges with both endpoints
        labelled ``comp0`` and exactly one endpoint on the detached
        side.  Returns ``(internal_id, candidates_scanned)``.
        """
        dyn = self.dyn
        in_side = np.zeros(dyn.num_vertices, dtype=bool)
        if side:
            in_side[np.fromiter(side, count=len(side),
                                dtype=np.int64)] = True
        eu, ev = dyn.eu, dyn.ev
        mask = (dyn.alive
                & (in_side[eu] != in_side[ev])
                & (self._comp[eu] == comp0)
                & (self._comp[ev] == comp0))
        cand = np.flatnonzero(mask)
        if not cand.size:
            return -1, 0
        w = dyn.ew[cand]
        wmin = w.min()
        return int(cand[w == wmin].min()), int(cand.size)

    def _smaller_side(self, c: int, other: int) -> set:
        """Vertex set of the smaller half of a just-cut tree.

        Runs two interleaved BFS traversals (one per side) over the
        tree adjacency and returns whichever finishes first, so the
        cost is O(min side), not O(component).
        """
        adj = self._tree_adj
        sides = []
        for start in (c, other):
            seen = {start}
            queue = deque([start])
            sides.append((seen, queue))
        while True:
            for seen, queue in sides:
                if not queue:
                    return seen
                x = queue.popleft()
                for nbr in adj[x]:
                    if nbr not in seen:
                        seen.add(nbr)
                        queue.append(nbr)

    # ------------------------------------------------------------------
    # Rooted-forest primitives
    # ------------------------------------------------------------------
    def _walk_root(self, x: int) -> int:
        """Root of ``x``'s tree (bounded parent walk)."""
        parent = self._parent
        n = parent.size
        steps = 0
        x = int(x)
        while parent[x] != x:
            x = int(parent[x])
            steps += 1
            if steps > n:
                raise IncrementalError("parent chain exceeds n (cycle)")
        return x

    def _reroot(self, x: int) -> None:
        """Reverse the parent chain so ``x`` becomes its tree's root."""
        parent, parent_eid = self._parent, self._parent_eid
        n = parent.size
        node = int(x)
        prev, prev_eid = -1, -1
        steps = 0
        while True:
            nxt = int(parent[node])
            nxt_eid = int(parent_eid[node])
            if prev < 0:
                parent[node] = node
                parent_eid[node] = -1
            else:
                parent[node] = prev
                parent_eid[node] = prev_eid
            if nxt == node:
                break
            prev, prev_eid = node, nxt_eid
            node = nxt
            steps += 1
            if steps > n:
                raise IncrementalError("parent chain exceeds n (cycle)")

    def _path_max(self, u: int, v: int) -> tuple[int, int]:
        """Maximum ``(w, id)`` edge on the tree path u—v.

        Stamped two-phase parent walk: stamp u's root chain, climb from
        v to the first stamped vertex (the LCA), then finish u's prefix.
        Returns ``(internal_id, edges_walked)``.
        """
        parent, parent_eid = self._parent, self._parent_eid
        ew = self.dyn.ew
        n = parent.size
        depth_at: dict[int, int] = {}
        chain: list[int] = []  # parent_eid along u -> root
        x = int(u)
        i = 0
        while True:
            depth_at[x] = i
            p = int(parent[x])
            if p == x:
                break
            chain.append(int(parent_eid[x]))
            x = p
            i += 1
            if i > n:
                raise IncrementalError("parent chain exceeds n (cycle)")
        best = -1
        bw = 0.0
        y = int(v)
        steps = 0
        while y not in depth_at:
            e = int(parent_eid[y])
            wv = float(ew[e])
            if best < 0 or (wv, e) > (bw, best):
                best, bw = e, wv
            y = int(parent[y])
            steps += 1
            if steps > n:
                raise IncrementalError("parent chain exceeds n (cycle)")
        for e in chain[: depth_at[y]]:
            wv = float(ew[e])
            if best < 0 or (wv, e) > (bw, best):
                best, bw = e, wv
        if best < 0:
            raise IncrementalError(
                f"no tree path between {u} and {v} in one component")
        return best, len(chain[: depth_at[y]]) + steps


#: touched-edge budget multiplier: path walks and cut scans count
#: individual edges, so allow a few times the batch-size threshold
#: before declaring the affected region "most of the graph"
_TOUCH_SCALE = 8.0
