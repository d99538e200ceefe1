"""Mutable simulation state of the AMST accelerator.

Holds exactly the data structures the RTL holds:

* the ``Parent`` array, with per-vertex intra-vertex (IV) flag and
  freshness marker (the paper's 6-bit ``it_idx``, here a full iteration
  counter — functionally identical, see Section V-B-2);
* the per-half-edge intra-edge (IE) flags (Section IV-B-1);
* the per-component ``MinEdge`` table (weight / undirected eid / target
  root), reset every iteration;
* the ``Root`` list and the growing MST output;
* the Parent / MinEdge HDV caches and the HBM traffic model.

Crucially, ``parent`` follows *hardware* update semantics: the
Compressing Module refreshes roots and non-IV leaves each iteration, but
IV vertices are frozen once ``skip_intra_vertices`` is on.  A frozen
vertex's parent pointer therefore chases through formerly-fresh vertices;
:meth:`resolve_roots` recovers true component roots by pointer jumping
(the chain always ends at a fresh vertex — see DESIGN.md "Simulator
fidelity notes"), and the Finding Module charges one extra lookup per
stale hop (Fig 7 Step ④'s freshness check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels.dispatch import KernelDispatch
from ..memory.direct_cache import DirectHDVCache
from ..memory.hash_cache import HashHDVCache
from ..memory.hbm import HBMModel
from ..memory.lru_cache import LRUCache
from .config import AmstConfig
from .timing import HostTimers

__all__ = ["SimState"]


def _make_cache(cfg: AmstConfig, n: int, kernels: KernelDispatch):
    if not cfg.use_hdc:
        return DirectHDVCache(0, n)  # capacity 0 == everything off-chip
    if cfg.lru_cache:
        ways = 8 if cfg.cache_vertices % 8 == 0 else 1
        return LRUCache(cfg.cache_vertices, ways=ways, kernels=kernels)
    if cfg.hash_cache:
        return HashHDVCache(cfg.cache_vertices, n)
    return DirectHDVCache(cfg.cache_vertices, n)


@dataclass
class SimState:
    graph: CSRGraph
    cfg: AmstConfig
    parent: np.ndarray  # hardware Parent array (int64[n])
    fresh_at: np.ndarray  # iteration at which parent[v] was last written
    iv: np.ndarray  # intra-vertex flags (bool[n])
    ie: np.ndarray  # intra-edge flags (bool[2m])
    roots: np.ndarray  # current Root list (int64[k])
    me_weight: np.ndarray  # MinEdge weight per component root
    me_eid: np.ndarray  # MinEdge undirected edge id per root (-1 = null)
    me_target: np.ndarray  # root of the component across the MinEdge
    parent_cache: object
    minedge_cache: object
    hbm: HBMModel
    kernels: KernelDispatch  # counted, timed kernel calls (repro.kernels)
    iteration: int = 0
    timers: HostTimers = field(default_factory=HostTimers)

    def __setattr__(self, name: str, value) -> None:
        # Rebinding the Parent array (the Compressing Module does this
        # every iteration) invalidates the resolve_roots memo; partial
        # hardware writes must go through :meth:`write_parent`.
        if name == "parent":
            object.__setattr__(self, "_roots_cache", None)
        object.__setattr__(self, name, value)

    @classmethod
    def initial(cls, graph: CSRGraph, cfg: AmstConfig) -> "SimState":
        n = graph.num_vertices
        timers = HostTimers()
        kernels = KernelDispatch(timers)
        return cls(
            graph=graph,
            cfg=cfg,
            parent=np.arange(n, dtype=np.int64),
            fresh_at=np.zeros(n, dtype=np.int64),
            iv=np.zeros(n, dtype=bool),
            ie=np.zeros(graph.num_half_edges, dtype=bool),
            roots=np.arange(n, dtype=np.int64),
            me_weight=np.full(n, np.inf),
            me_eid=np.full(n, -1, dtype=np.int64),
            me_target=np.full(n, -1, dtype=np.int64),
            parent_cache=_make_cache(cfg, n, kernels),
            minedge_cache=_make_cache(cfg, n, kernels),
            hbm=HBMModel(),
            timers=timers,
            kernels=kernels,
        )

    # ------------------------------------------------------------------
    def resolve_roots(self) -> np.ndarray:
        """True component root of every vertex (chases frozen chains).

        Memoized per iteration: the result is cached until the Parent
        array changes (rebinding ``state.parent`` or calling
        :meth:`write_parent`), so repeated calls within one pass are
        free.  The returned array is read-only — it is shared between
        callers.
        """
        cached = self._roots_cache
        if cached is None:
            with self.timers.section("sub.resolve_roots"):
                cached = self._recompute_roots()
            cached.setflags(write=False)
            object.__setattr__(self, "_roots_cache", cached)
        return cached

    def _recompute_roots(self) -> np.ndarray:
        """Uncached root resolution through the ``resolve_roots`` kernel:
        chases only still-unresolved vertices with pointer doubling
        (O(unresolved · log depth))."""
        return self.kernels.resolve_roots(self.parent)

    def write_parent(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Hardware Parent write: update entries, invalidate the memo."""
        self.parent[ids] = values
        object.__setattr__(self, "_roots_cache", None)

    def stale_hops(self, ids: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Resolution cost of Parent lookups for endpoint ids.

        Returns ``(roots, hop_ids)`` where ``roots[i]`` is the resolved
        component root of ``ids[i]`` and ``hop_ids`` lists, per extra hop,
        the vertex ids whose Parent entry had to be read (the first read
        of ``parent[ids]`` itself is *not* included — callers count it).
        A fresh vertex resolves in the first read; each stale (frozen IV)
        link in the chain costs one extra read of the link's target.
        """
        ids = np.asarray(ids, dtype=np.int64)
        cur = self.parent[ids]
        hop_ids: list[np.ndarray] = []
        # a pointer is final when its target is a root or fresh this pass
        while True:
            nxt = self.parent[cur]
            unresolved = nxt != cur
            if not unresolved.any():
                return cur, hop_ids
            hop_ids.append(cur[unresolved])
            cur = np.where(unresolved, nxt, cur)

    def check_invariants(self, log=None) -> None:
        """Validate the simulator's structural invariants (self-check).

        Raises :class:`~repro.core.selfcheck.SelfCheckError` listing
        every violation; see ``repro.core.selfcheck`` for the invariant
        families.  Passing the run's :class:`~repro.core.events.EventLog`
        additionally reconciles the event ledger against the cache
        counters and the component count.  Read-only: event counts and
        cache statistics are unchanged by the check.
        """
        from .selfcheck import check_state_invariants

        with self.timers.section("sub.self_check"):
            check_state_invariants(self, log)

    def reset_minedge(self) -> None:
        """Stage-3 ``Update(MinEdge, ...)``: clear the table for the next
        iteration (entries of live roots only; dead entries were already
        invalidated in their caches)."""
        self.me_weight[:] = np.inf
        self.me_eid[:] = -1
        self.me_target[:] = -1
