"""Graph registry: publish-once, address-by-fingerprint graph storage.

The daemon's registry keeps every published graph in-process, once:
its jobs run on the daemon's own worker threads and read the record's
:class:`~repro.graph.csr.CSRGraph` in place, so no copy is made for
another process.  Graphs are addressed by their content fingerprint
(:func:`~repro.bench.runcache.graph_fingerprint`), which makes
publication idempotent: re-publishing identical bytes returns the
existing record, and a fingerprint names *exactly* one graph forever.

Eviction leaves a tombstone so the daemon can distinguish "you never
published that" (``graph_not_found``) from "it was here and is gone"
(``graph_evicted``) — queued jobs that lose their graph to eviction
fail with the latter, structured, never by wedging (see
``tests/serve/test_faults.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..bench.runcache import graph_fingerprint
from ..graph.csr import CSRGraph
from .protocol import ServeError

__all__ = ["GraphRecord", "GraphRegistry"]


@dataclass
class GraphRecord:
    """One published graph."""

    fingerprint: str
    graph: CSRGraph
    name: str = ""
    published_at: float = field(default_factory=time.time)
    nbytes: int = 0

    def view(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "name": self.name,
            "num_vertices": int(self.graph.num_vertices),
            "num_edges": int(self.graph.num_edges),
            "nbytes": int(self.nbytes),
        }


class GraphRegistry:
    """Thread-safe fingerprint-addressed store of published graphs."""

    def __init__(self) -> None:
        self._records: dict[str, GraphRecord] = {}
        self._evicted: set[str] = set()
        self._lock = threading.Lock()

    # -- publication ---------------------------------------------------
    def publish(self, graph: CSRGraph, *, name: str = "") -> tuple[
            GraphRecord, bool]:
        """Publish ``graph``; returns ``(record, reused)``.

        Idempotent under content addressing: publishing bytes already in
        the registry returns the existing record (``reused=True``).
        Re-publishing an evicted fingerprint clears its tombstone —
        eviction is not a ban.
        """
        fp = graph_fingerprint(graph)
        with self._lock:
            existing = self._records.get(fp)
            if existing is not None:
                return existing, True
            nbytes = sum(
                int(a.nbytes) for a in
                (graph.indptr, graph.dst, graph.weight, graph.eid))
            record = GraphRecord(fingerprint=fp, graph=graph, name=name,
                                 nbytes=nbytes)
            self._records[fp] = record
            self._evicted.discard(fp)
            return record, False

    # -- lookup --------------------------------------------------------
    def get(self, fingerprint: str) -> GraphRecord:
        """The record for ``fingerprint``; structured errors otherwise."""
        with self._lock:
            record = self._records.get(fingerprint)
            if record is not None:
                return record
            if fingerprint in self._evicted:
                raise ServeError(
                    "graph_evicted",
                    f"graph {fingerprint} was evicted from the registry",
                    {"fingerprint": fingerprint})
            raise ServeError(
                "graph_not_found",
                f"graph {fingerprint} has never been published",
                {"fingerprint": fingerprint})

    def list(self) -> list[dict]:
        with self._lock:
            return [r.view() for r in self._records.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- eviction / shutdown -------------------------------------------
    def evict(self, fingerprint: str) -> dict:
        """Drop one graph's record; tombstone the fingerprint."""
        with self._lock:
            record = self._records.pop(fingerprint, None)
            if record is None:
                if fingerprint in self._evicted:
                    raise ServeError(
                        "graph_evicted",
                        f"graph {fingerprint} already evicted",
                        {"fingerprint": fingerprint})
                raise ServeError(
                    "graph_not_found",
                    f"graph {fingerprint} has never been published",
                    {"fingerprint": fingerprint})
            self._evicted.add(fingerprint)
            return record.view()

    def close(self) -> None:
        """Evict everything (daemon shutdown)."""
        with self._lock:
            self._evicted.update(self._records)
            self._records.clear()
