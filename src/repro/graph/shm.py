"""Zero-copy shared-memory publication of graphs and arrays.

The multi-run surfaces — ``amst bench/sweep --jobs N``, the oracle
harness, golden-trace recomputation and multi-card ``run_fabric`` —
all fan independent simulator runs over a process pool, and before this
module every task shipped its input arrays through the pool by pickling
(multi-MB copies per task) or rebuilt the graph from scratch inside the
worker.  Here the parent *publishes* the arrays once into a
``multiprocessing.shared_memory`` segment and sends workers a
lightweight, picklable :class:`SharedArrayBundle` /
:class:`SharedGraphHandle` instead; workers attach read-only NumPy views
onto the same physical pages — zero copies, O(bytes-of-handle) pickling.

Design rules (see docs/PERFORMANCE.md "Zero-copy parallel execution"):

* **publisher owns the segment** — :class:`GraphStore` is a context
  manager; segments are unlinked when it closes, after the pool has
  drained.  Workers never unlink.
* **per-process attach cache** — a worker attaching the same segment
  twice (many tasks over one graph) reuses the mapping
  (:data:`_ATTACHED`); the ``SharedMemory`` object is kept referenced so
  the buffer outlives the views built on it.
* **graceful fallback** — when ``multiprocessing.shared_memory`` is
  unavailable or segment creation fails (spawn-restricted platforms,
  exhausted ``/dev/shm``), :meth:`GraphStore.publish` logs a warning
  *once* and returns the original object, which then travels through
  the pool by pickling exactly as before.  Results are identical either
  way — only the transport changes.
"""

from __future__ import annotations

import logging
import secrets
from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = [
    "SharedArrayBundle",
    "SharedGraphHandle",
    "GraphStore",
    "attach_arrays",
    "attach_graph",
    "owned_segments",
    "resolve_arrays",
    "resolve_graph",
    "shm_available",
    "shm_counters",
]

log = logging.getLogger(__name__)

try:  # pragma: no cover - exercised via monkeypatching in tests
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - all supported platforms have it
    _shm = None

_warned_fallback = False

#: per-process traffic counters of the zero-copy layer (telemetry feeds
#: these into the ``shm.*`` metric namespace — see ``repro.obs``)
_COUNTERS = {
    "publishes": 0,  # segments successfully created
    "published_bytes": 0,  # total bytes packed into segments
    "fallbacks": 0,  # publish calls that fell back to pickling
    "segment_attaches": 0,  # first-time attaches in this process
    "attaches": 0,  # bundle attach calls (incl. cached segments)
}


#: names of segments created by this process's stores and not yet
#: unlinked — the leak probe :func:`owned_segments` reads it
_OWNED: set[str] = set()


def shm_counters() -> dict[str, int]:
    """Snapshot of this process's publish/attach/fallback counters."""
    return dict(_COUNTERS)


def owned_segments() -> tuple[str, ...]:
    """Names of live segments this process published and still owns.

    A segment enters on :meth:`GraphStore.publish` and leaves on
    :meth:`GraphStore.close`, so an empty tuple proves no publisher in
    this process is leaking shared memory (the daemon's shutdown reply
    carries it as ``shm_segments``).
    """
    return tuple(sorted(_OWNED))


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can be used."""
    return _shm is not None


def _warn_fallback(reason: str) -> None:
    global _warned_fallback
    if not _warned_fallback:
        log.warning(
            "shared-memory graph store unavailable (%s); falling back to "
            "pickling arrays through the process pool", reason,
        )
        _warned_fallback = True


@dataclass(frozen=True)
class SharedArrayBundle:
    """Picklable handle to N arrays packed into one shm segment.

    ``specs`` holds ``(dtype_str, shape)`` per array, in segment order;
    every array is stored contiguous at an 8-byte-aligned offset.
    """

    name: str
    specs: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def nbytes(self) -> int:
        """Aligned segment footprint (what a card's shard handle maps)."""
        total = 0
        for dtype_str, shape in self.specs:
            n = int(np.prod(shape)) if shape else 1
            total += _aligned(n * np.dtype(dtype_str).itemsize)
        return total


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable handle to a published :class:`CSRGraph`.

    The four CSR arrays live in ``bundle`` in the fixed order
    ``(indptr, dst, weight, eid)``.
    """

    bundle: SharedArrayBundle


def _aligned(nbytes: int) -> int:
    return (nbytes + 7) & ~7


class GraphStore:
    """Publisher side of the zero-copy layer (context manager).

    Segments created through :meth:`publish` / :meth:`publish_graph` are
    closed *and unlinked* on :meth:`close`, so use the store around the
    full lifetime of the pool consuming the handles::

        with GraphStore() as store:
            handle = store.publish_graph(graph)   # handle or graph
            results = execute(tasks, jobs=jobs)   # workers resolve()
    """

    def __init__(self) -> None:
        self._segments: list = []

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close and unlink every segment this store created."""
        for seg in self._segments:
            _OWNED.discard(seg.name)
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._segments.clear()

    # -- publishing ----------------------------------------------------
    def publish(self, *arrays: np.ndarray):
        """Pack ``arrays`` into one shm segment; return a bundle handle.

        Falls back (logged warning, once per process) to returning the
        tuple of arrays unchanged when shared memory is unusable — the
        caller passes the result to a worker either way and the worker
        resolves it with :func:`resolve_arrays`.
        """
        arrays = tuple(np.ascontiguousarray(a) for a in arrays)
        if _shm is None:
            _warn_fallback("multiprocessing.shared_memory not importable")
            _COUNTERS["fallbacks"] += 1
            return arrays
        offsets, total = [], 0
        for a in arrays:
            offsets.append(total)
            total += _aligned(a.nbytes)
        try:
            seg = _shm.SharedMemory(
                create=True, size=max(total, 1),
                name=f"amst_{secrets.token_hex(8)}",
            )
        except OSError as exc:
            _warn_fallback(f"segment creation failed: {exc}")
            _COUNTERS["fallbacks"] += 1
            return arrays
        self._segments.append(seg)
        _OWNED.add(seg.name)
        _COUNTERS["publishes"] += 1
        _COUNTERS["published_bytes"] += total
        for a, off in zip(arrays, offsets):
            dst = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.buf,
                             offset=off)
            dst[...] = a
        return SharedArrayBundle(
            name=seg.name,
            specs=tuple((a.dtype.str, tuple(a.shape)) for a in arrays),
        )

    def publish_graph(self, graph: CSRGraph):
        """Publish a CSR graph; returns a handle, or the graph on fallback."""
        bundle = self.publish(graph.indptr, graph.dst, graph.weight,
                              graph.eid)
        if isinstance(bundle, SharedArrayBundle):
            return SharedGraphHandle(bundle=bundle)
        return graph


# ----------------------------------------------------------------------
# Worker side: attach (cached per process)
# ----------------------------------------------------------------------
#: segment name -> (SharedMemory, attached object); keeping the
#: SharedMemory referenced pins the mapping under the NumPy views.
_ATTACHED: dict[str, tuple[object, object]] = {}


def _attach_segment(name: str):
    if name in _ATTACHED:
        return _ATTACHED[name][0]
    seg = _shm.SharedMemory(name=name)
    _COUNTERS["segment_attaches"] += 1
    try:
        # Under "spawn", attaching registers the segment with the
        # *worker's own* resource tracker, which would unlink it when
        # the worker exits even though the publisher still owns it —
        # deregister and let the parent unlink.  Under "fork" the
        # tracker is shared and registrations form a set, so removing
        # the entry here would instead break the parent's unlink.
        import multiprocessing as _mp
        from multiprocessing import resource_tracker

        if _mp.get_start_method(allow_none=True) != "fork":
            resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    _ATTACHED[name] = (seg, None)
    return seg


def attach_arrays(bundle: SharedArrayBundle) -> tuple[np.ndarray, ...]:
    """Read-only NumPy views over a published bundle (zero-copy)."""
    seg = _attach_segment(bundle.name)
    _COUNTERS["attaches"] += 1
    out, off = [], 0
    for dtype_str, shape in bundle.specs:
        dt = np.dtype(dtype_str)
        a = np.ndarray(shape, dtype=dt, buffer=seg.buf, offset=off)
        a.setflags(write=False)
        out.append(a)
        off += _aligned(a.nbytes)
    return tuple(out)


def attach_graph(handle: SharedGraphHandle) -> CSRGraph:
    """Rebuild the CSR graph from a handle (cached per process)."""
    cached = _ATTACHED.get(handle.bundle.name)
    if cached is not None and cached[1] is not None:
        return cached[1]
    indptr, dst, weight, eid = attach_arrays(handle.bundle)
    graph = CSRGraph(indptr, dst, weight, eid)
    seg = _ATTACHED[handle.bundle.name][0]
    _ATTACHED[handle.bundle.name] = (seg, graph)
    return graph


def resolve_arrays(obj) -> tuple[np.ndarray, ...]:
    """Accept a bundle handle or a plain tuple of arrays (fallback)."""
    if isinstance(obj, SharedArrayBundle):
        return attach_arrays(obj)
    return tuple(obj)


def resolve_graph(obj) -> CSRGraph:
    """Accept a graph handle or a plain :class:`CSRGraph` (fallback)."""
    if isinstance(obj, SharedGraphHandle):
        return attach_graph(obj)
    return obj
