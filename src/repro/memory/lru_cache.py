"""Conventional set-associative LRU cache model.

Section III-A argues that *"traditional cache strategies face
difficulties in managing data"* for MST's mixed access patterns — this
model exists to test that claim quantitatively rather than take it on
faith.  It implements a ``ways``-associative LRU cache over vertex-id
addresses with the same batch API as the HDV caches, so the cache-
organization sweep can put LRU, direct-HDV and hash-HDV side by side at
equal capacity (``sweep_cache_organization``, LRU row on by default).

The replacement state is exact (per-set LRU stamps), processed in stream
order; a cache this size would be unbuildable in BRAM with multi-port
access — which is the paper's other argument against it — so the sweep
reports its hit rate as an upper bound, not a design point.

Two implementations share the model:

* :class:`LRUCache` — the production model.  Accesses are grouped by
  set (`np.argsort`, stable) and each set's stream is replayed in
  lockstep *rounds*: round ``r`` applies the ``r``-th access of every
  active set at once with NumPy ops, so the Python-level loop length is
  the longest per-set stream, not the total access count.  Per-access
  clocks are assigned in original stream order, so tags, stamps and the
  clock are byte-identical to the scalar model (accesses to different
  sets are independent; only the in-set order matters for behaviour).
* :class:`ScalarLRUCache` — the original one-access-at-a-time model,
  retained as the equivalence-test oracle
  (``tests/memory/test_lru_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from ..kernels.dispatch import KernelDispatch
from .stats import CacheStats

__all__ = ["LRUCache", "ScalarLRUCache"]


class _LRUBase:
    """State, validation and batch-API boilerplate shared by both models."""

    def __init__(self, capacity: int, ways: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ways <= 0 or capacity % ways:
            raise ValueError("capacity must be a positive multiple of ways")
        self.capacity = capacity
        self.ways = ways
        self.sets = capacity // ways
        self._tags = np.full((self.sets, ways), -1, dtype=np.int64)
        self._stamp = np.zeros((self.sets, ways), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        hits = self._replay(ids)
        nh = int(np.count_nonzero(hits))
        self.stats.accesses += ids.size
        self.stats.hits += nh
        self.stats.misses += ids.size - nh
        return hits

    def write(self, ids: np.ndarray) -> np.ndarray:
        """Write-allocate: every write lands in the cache."""
        ids = np.asarray(ids, dtype=np.int64)
        self._replay(ids)
        self.stats.writes += ids.size
        self.stats.cache_writes += ids.size
        return np.ones(ids.size, dtype=bool)

    def mark_dead(self, ids: np.ndarray) -> None:
        """LRU has no liveness concept; dead lines age out naturally."""
        self.stats.invalidations += np.asarray(ids).size

    def contains(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        return (self._tags[ids % self.sets] == ids[:, None]).any(axis=1)

    def utilization(self) -> float:
        return float(np.count_nonzero(self._tags >= 0)) / self.capacity

    def reset(self) -> None:
        self._tags[:] = -1
        self._stamp[:] = 0
        self._clock = 0
        self.stats = CacheStats()

    def _replay(self, ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LRUCache(_LRUBase):
    """Set-associative LRU over vertex ids (allocate-on-read-and-write).

    The replay itself is the :func:`repro.kernels.numpy_impl.lru_replay`
    kernel (the vectorized lockstep-rounds algorithm); this class keeps
    the cache state, statistics and batch API, and dispatches each batch
    through the run's :class:`~repro.kernels.dispatch.KernelDispatch` so
    the ``kernel.lru_replay`` counters apply here exactly like the
    simulator's other hot loops.  A standalone cache (sweeps, tests)
    gets its own dispatcher.
    """

    def __init__(self, capacity: int, ways: int = 8,
                 kernels: KernelDispatch | None = None) -> None:
        super().__init__(capacity, ways)
        self._kernels = kernels if kernels is not None else KernelDispatch()

    def _replay(self, ids: np.ndarray) -> np.ndarray:
        hits, evictions, self._clock = self._kernels.lru_replay(
            ids, self._tags, self._stamp, self._clock, self.sets, self.ways
        )
        self.stats.evictions += int(evictions)
        return hits


class ScalarLRUCache(_LRUBase):
    """One-access-at-a-time reference model (the equivalence oracle)."""

    def _touch(self, vid: int) -> bool:
        """One access in stream order; returns hit flag and allocates."""
        s = vid % self.sets
        tags = self._tags[s]
        self._clock += 1
        hit_way = np.flatnonzero(tags == vid)
        if hit_way.size:
            self._stamp[s, hit_way[0]] = self._clock
            return True
        victim = int(np.argmin(self._stamp[s]))
        if self._tags[s, victim] >= 0:
            self.stats.evictions += 1
        self._tags[s, victim] = vid
        self._stamp[s, victim] = self._clock
        return False

    def _replay(self, ids: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._touch(int(v)) for v in ids), dtype=bool, count=ids.size
        )

    def contains(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros(ids.size, dtype=bool)
        for i, v in enumerate(ids):
            s = int(v) % self.sets
            out[i] = bool((self._tags[s] == v).any())
        return out
