"""Hash-based HDV cache (Section V-F-1, Fig 11d/e).

The direct HDV cache wastes slots once vertices die (merged roots, intra
vertices).  The hash-based variant keeps the same direct address mapping —
slot ``addr % C``, tag ``addr // C`` (the paper's ``Addr[18:0]`` /
``Addr[31:19]`` split with C = 512K) — but adds a *batch id* tag so a dead
slot can be re-claimed by any later vertex that hashes to it:

* **init**: slots hold batch 0, i.e. vertices ``0..C-1`` (the HDVs after
  degree reordering);
* **read**: hit iff the stored batch id matches the address's batch;
* **write**: hit or *empty* slot → write to cache (empty slots are claimed);
  mismatched live slot → write to DRAM (no eviction);
* **clear**: when a vertex's data dies its slot's batch id is set to empty.

Within one vectorized batch of writes, in-order hardware semantics are
emulated: the first write claiming an empty slot wins; later writes to the
same slot from a different batch go to DRAM.

Each slot stores its owner's whole address, ``batch * C + slot``, instead
of the batch id: for an address that maps to the slot, ``owner == addr``
holds exactly when ``tag == addr // C``, so a hit is one compare and no
address is divided.  A power-of-two C takes the slot as a bit mask.
"""

from __future__ import annotations

import numpy as np

from .stats import CacheStats

__all__ = ["HashHDVCache"]

_EMPTY = np.int64(-1)


class HashHDVCache:
    """Batch-tagged direct-mapped on-chip store with claim-on-write."""

    def __init__(self, capacity: int, num_vertices: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.num_vertices = num_vertices
        # slot of an address: the low bits when C is a power of two
        self._mask = capacity - 1 if capacity & (capacity - 1) == 0 else None
        self._owner = np.empty(capacity, dtype=np.int64)
        self.reset()

    # ------------------------------------------------------------------
    def _slots(self, ids: np.ndarray) -> np.ndarray:
        if self._mask is not None:
            return ids & self._mask
        return ids % self.capacity

    def _held(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        return self._owner[self._slots(ids)] == ids

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Vector of hit flags; misses are DRAM fetches (no fill)."""
        hits = self._held(ids)
        nh = int(np.count_nonzero(hits))
        self.stats.accesses += hits.size
        self.stats.hits += nh
        self.stats.misses += hits.size - nh
        return hits

    def write(self, ids: np.ndarray) -> np.ndarray:
        """Vector of written-to-cache flags, claiming empty slots in order."""
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots(ids)
        empty = self._owner[slots] == _EMPTY
        if empty.any():
            pos = np.flatnonzero(empty)
            # First write (in stream order) to each empty slot claims it.
            _, first = np.unique(slots[pos], return_index=True)
            claim = pos[first]
            self._owner[slots[claim]] = ids[claim]
        cached = self._owner[slots] == ids
        nc = int(np.count_nonzero(cached))
        self.stats.writes += ids.size
        self.stats.cache_writes += nc
        self.stats.dram_writes += ids.size - nc
        return cached

    def mark_dead(self, ids: np.ndarray) -> None:
        """Empty the slots that dying vertices currently own."""
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots(ids)
        owner = self._owner[slots] == ids
        self._owner[slots[owner]] = _EMPTY
        self.stats.invalidations += int(np.count_nonzero(owner))

    # ------------------------------------------------------------------
    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Hit predicate without touching the counters."""
        return self._held(ids)

    def utilization(self) -> float:
        """Fraction of slots holding live data (Fig 10a/b, hash series)."""
        return float(np.count_nonzero(self._owner != _EMPTY)) / self.capacity

    def reset(self) -> None:
        # batch 0 == the HDVs: vertex s owns slot s
        held = min(self.num_vertices, self.capacity)
        self._owner[:held] = np.arange(held)
        self._owner[held:] = _EMPTY
        self.stats = CacheStats()
