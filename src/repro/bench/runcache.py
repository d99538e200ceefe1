"""Content-addressed cache of expensive per-graph computations.

Every multi-run surface repeats work on the *same* graph: ``amst
verify`` recomputes reference MSTs and simulator forests case by case
and certifies the same forest for every configuration; the serving
daemon answers identical run jobs; the incremental engine replays
update streams it has seen.  This module memoizes those computations
under **content-addressed** keys — nothing is keyed by object identity
or generator arguments, only by the bytes of the graph and the
canonicalized configuration — so a hit is *provably* the same
computation and the cached value is byte-identical to recomputing it.

Key scheme (see docs/PERFORMANCE.md "Run cache"):

* ``graph_fingerprint`` — BLAKE2b over the four CSR arrays' raw bytes
  plus the vertex count.  Two graphs share a fingerprint iff their CSR
  representation is identical, which is exactly the precondition for
  every downstream computation to be identical.
* ``config_fingerprint`` — canonical JSON of the full ``AmstConfig``
  dataclass (sorted keys, cycle costs included), hashed.  Any knob that
  could change a run changes the key; *all* knobs are fields, so there
  is no invalidation rule to maintain by hand.
* domain prefixes keep the value types per key unambiguous: ``ref:``
  (reference MST), ``oracle:`` (the oracle's ``(result, per-iteration
  component counts)`` for one configuration), ``cert:`` (certificate
  verdict), ``delta:`` (incremental snapshots), ``served:`` (the
  daemon's encoded run result).

Tiers:

* **memory** — an ``OrderedDict`` LRU holding whole Python objects
  (shared by reference; everything cached here is treated as immutable
  by its consumers — CSR arrays are frozen, results are never mutated);
* **disk** (optional) — pickle files under a directory, for cache reuse
  across processes/invocations.  Writes are atomic (tempfile + rename)
  so concurrent writers at worst duplicate work, never corrupt.

The cache is an *optimization only*: every consumer takes ``cache=None``
and computes from scratch without it, and the property tests assert
cached and uncached answers are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.config import AmstConfig
from ..graph.csr import CSRGraph

__all__ = [
    "RunCache",
    "CacheStats",
    "graph_fingerprint",
    "config_fingerprint",
    "preprocess_options",
    "cached_certificate",
    "cached_reference",
]


def graph_fingerprint(graph: CSRGraph) -> str:
    """Stable content hash of a CSR graph (hex, 32 chars).

    Hashes the raw bytes of ``indptr``/``dst``/``weight``/``eid`` plus
    the vertex count — the complete observable state of the graph, so
    equal fingerprints imply identical downstream computations.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(graph.num_vertices).encode())
    for a in (graph.indptr, graph.dst, graph.weight, graph.eid):
        h.update(b"|")
        h.update(a.tobytes())
    return h.hexdigest()


def config_fingerprint(cfg: AmstConfig) -> str:
    """Content hash of a canonicalized ``AmstConfig`` (hex, 32 chars)."""
    canon = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()


def preprocess_options(cfg: AmstConfig) -> tuple[str, bool]:
    """The preprocessing knobs a configuration implies.

    Mirrors ``Amst.run``'s defaulting exactly: degree-sort reordering
    only when the HDV cache is on, SEW per ``sort_edges_by_weight``.
    Configurations that agree on this tuple can share one
    :func:`~repro.graph.preprocess.preprocess` pass.
    """
    return ("sort" if cfg.use_hdc else "identity", cfg.sort_edges_by_weight)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (memory and disk tiers separately).

    The ``delta_*`` counters track the ``delta:`` key family (the
    incremental engine's update-stream snapshots) as a sub-population
    of the totals: a delta hit increments both ``memory_hits`` (or
    ``disk_hits``) and its ``delta_`` twin.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_writes: int = 0
    disk_errors: int = 0
    delta_memory_hits: int = 0
    delta_disk_hits: int = 0
    delta_misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def delta_hits(self) -> int:
        return self.delta_memory_hits + self.delta_disk_hits


@dataclass
class RunCache:
    """Two-tier content-addressed cache.

    Parameters
    ----------
    max_memory_entries:
        LRU capacity of the in-memory tier (0 disables it).
    disk_dir:
        Optional directory for the persistent tier; created on first
        write.  Defaults to ``$AMST_CACHE_DIR`` when that is set and
        the instance is built via :meth:`from_env`.
    """

    max_memory_entries: int = 128
    disk_dir: str | Path | None = None
    _stats: CacheStats = field(default_factory=CacheStats, repr=False)
    _memory: OrderedDict = field(default_factory=OrderedDict, repr=False)
    # the serving daemon shares one cache across worker threads; the
    # lock guards the LRU dict and counters (computation in
    # get_or_compute runs outside it, so misses never serialize)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False)

    @classmethod
    def from_env(cls, max_memory_entries: int = 128) -> "RunCache":
        """Build a cache honouring ``$AMST_CACHE_DIR`` for the disk tier."""
        return cls(max_memory_entries=max_memory_entries,
                   disk_dir=os.environ.get("AMST_CACHE_DIR") or None)

    # -- key/value plumbing --------------------------------------------
    def _disk_path(self, key: str) -> Path:
        digest = hashlib.blake2b(key.encode(), digest_size=16).hexdigest()
        return Path(self.disk_dir) / f"{digest}.pkl"

    def get(self, key: str):
        """Cached value or None (promotes disk hits into memory)."""
        delta = key.startswith("delta:")
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self._stats.memory_hits += 1
                if delta:
                    self._stats.delta_memory_hits += 1
                return self._memory[key]
        if self.disk_dir is not None:
            path = self._disk_path(key)
            if path.exists():
                try:
                    with open(path, "rb") as f:
                        value = pickle.load(f)
                except Exception:
                    # torn or corrupt file, or one pickled against code
                    # that has since changed (a missing module or class):
                    # a miss, so the caller recomputes and overwrites it
                    return None
                with self._lock:
                    self._stats.disk_hits += 1
                    if delta:
                        self._stats.delta_disk_hits += 1
                    self._remember(key, value)
                return value
        return None

    def note_miss(self, key: str) -> None:
        """Count one miss for ``key`` (tier-classified by prefix).

        :meth:`get` returns ``None`` without counting anything — only
        the caller knows whether that ``None`` ends in a computation.
        ``get_or_compute`` calls this internally; callers driving the
        get/put pair by hand (the serving daemon's single-flight path,
        the incremental engine's delta lookups) call it when they
        commit to computing.
        """
        with self._lock:
            self._stats.misses += 1
            if key.startswith("delta:"):
                self._stats.delta_misses += 1

    def put(self, key: str, value) -> None:
        with self._lock:
            self._remember(key, value)
        if self.disk_dir is not None:
            path = self._disk_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)  # atomic on POSIX
                with self._lock:
                    self._stats.disk_writes += 1
            except OSError:  # pragma: no cover - disk tier best-effort
                with self._lock:
                    self._stats.disk_errors += 1
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _remember(self, key: str, value) -> None:
        if self.max_memory_entries <= 0:
            return
        if key in self._memory:
            self._memory.move_to_end(key)
        self._memory[key] = value
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self._stats.evictions += 1

    def stats(self) -> dict:
        """Public snapshot of the cache counters (both tiers).

        A plain dict so observers (``amst verify`` output, the
        ``runcache.*`` telemetry namespace in ``repro.obs``) can consume
        it without reaching into the mutable internal counters.
        """
        with self._lock:
            s = self._stats
            return {
                "memory_hits": s.memory_hits,
                "disk_hits": s.disk_hits,
                "hits": s.hits,
                "misses": s.misses,
                "evictions": s.evictions,
                "disk_writes": s.disk_writes,
                "disk_errors": s.disk_errors,
                "delta_memory_hits": s.delta_memory_hits,
                "delta_disk_hits": s.delta_disk_hits,
                "delta_hits": s.delta_hits,
                "delta_misses": s.delta_misses,
                "memory_entries": len(self._memory),
                "disk_enabled": self.disk_dir is not None,
            }

    def get_or_compute(self, key: str, fn: Callable[[], object]):
        """Return the cached value for ``key`` or compute-and-store it.

        The computation runs outside the lock, so concurrent misses on
        *different* keys proceed in parallel; concurrent misses on the
        same key at worst duplicate work (last write wins, values are
        deterministic) — the disk tier's existing guarantee.
        """
        value = self.get(key)
        if value is not None:
            return value
        self.note_miss(key)
        value = fn()
        self.put(key, value)
        return value

    def drop_fingerprint(self, fingerprint: str) -> int:
        """Drop every memory-tier entry derived from one graph.

        Keys embed the graph fingerprint as a ``:``-separated component
        (``oracle:<graph_fp>:<cfg_fp>`` etc.), so membership is exact, not
        substring-fuzzy.  The serving daemon calls this on graph
        eviction; the disk tier is content-addressed and shared across
        processes, so it is deliberately left alone.  Returns the
        number of entries dropped.
        """
        with self._lock:
            doomed = [k for k in self._memory
                      if fingerprint in k.split(":")]
            for k in doomed:
                del self._memory[k]
            return len(doomed)


# ----------------------------------------------------------------------
# Domain helpers — the computations the multi-run stack repeats
# ----------------------------------------------------------------------
def cached_reference(
    graph: CSRGraph,
    name: str,
    algo: Callable[[CSRGraph], object],
    *,
    cache: RunCache | None = None,
):
    """Memoized reference MST run (Kruskal/Prim/Borůvka/Filter-Kruskal).

    The ``ref:<graph fp>:<name>`` key is the one the oracle reads and
    writes, so a forest either of them computed serves the other.
    """
    if cache is None:
        return algo(graph)
    key = f"ref:{graph_fingerprint(graph)}:{name}"
    return cache.get_or_compute(key, lambda: algo(graph))


def cached_certificate(
    graph: CSRGraph,
    edge_ids,
    *,
    cache: RunCache | None = None,
    graph_fp: str | None = None,
) -> str | None:
    """Memoized cycle-property certificate of a forest.

    Returns the certification error string, or ``None`` when the forest
    certifies as the canonical minimum forest.  The verdict is a pure
    function of the graph and the forest, so the ``cert:`` key names
    both (graph fingerprint, hash of the sorted edge ids): the oracle's
    configurations share one forest per graph and one certification.
    The value is stored wrapped in a 1-tuple because ``None`` is a
    legitimate (successful) verdict.
    """
    from ..mst.certificate import certify_minimum_forest

    def compute() -> str | None:
        try:
            certify_minimum_forest(graph, edge_ids)
        except AssertionError as exc:
            return str(exc)
        return None

    if cache is None:
        return compute()
    fp = graph_fp or graph_fingerprint(graph)
    ids = np.sort(np.asarray(edge_ids, dtype=np.int64))
    forest_fp = hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest()
    return cache.get_or_compute(f"cert:{fp}:{forest_fp}",
                                lambda: (compute(),))[0]
