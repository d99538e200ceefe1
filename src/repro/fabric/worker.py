"""Per-card worker: one process, one shard, one local MSF.

The worker body is a plain module-level function so the executor can
pickle it by reference into pool processes.  Each card resolves the
shm-published ``(u, v, w, sorted_eids)`` bundle to read-only views,
slices out its own shard, materializes the shard subgraph and runs the
full AMST simulator over it.  A card ships back only what a real card
would: its modelled :class:`~repro.core.perf.PerfReport` and the
global edge ids of its surviving forest.  The simulator state, event
log and preprocessing result stay in the worker, so a pooled card
pickles a few kilobytes plus one ``int64`` id array.

Worker-side telemetry uses *counters* (``inc``), which sum correctly
when per-worker snapshots merge back into the parent session; the
executor already wraps every card in a ``task:fabric.card<N>`` span, so
each card gets its own lane in the merged Chrome trace.
"""

from __future__ import annotations

import numpy as np

from ..core.accelerator import Amst
from ..core.config import AmstConfig
from ..graph.builders import from_arrays
from ..graph.csr import CSRGraph
from ..obs.context import current_telemetry

__all__ = ["card_task", "edge_subgraph"]


def edge_subgraph(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    keep: np.ndarray,
) -> CSRGraph:
    """Subgraph over the selected undirected edge ids.

    ``u/v/w`` are the graph's canonical endpoint arrays (computed once
    by the caller); vertex ids are preserved (isolated vertices are fine
    for the simulator) and the subgraph's edge id ``e`` maps back to
    ``keep[e]`` in the input graph.
    """
    keep = np.asarray(keep, dtype=np.int64)
    return from_arrays(num_vertices, u[keep], v[keep], w[keep])


def card_task(
    bundle,
    start: int,
    stop: int,
    num_vertices: int,
    cfg: AmstConfig,
    card: int = 0,
) -> tuple:
    """Worker body for one card's local phase.

    ``bundle`` resolves to ``(u, v, w, sorted_eids)`` — shared-memory
    views on the zero-copy path, plain arrays on the fallback path; the
    card's edge-id shard is the ``[start, stop)`` slice of the
    card-sorted id array.  Returns ``((report, forest_eids),)``: a
    1-tuple so the executor's result normalization leaves the pair
    intact.
    """
    from ..graph.shm import resolve_arrays

    u, v, w, sorted_eids = resolve_arrays(bundle)
    keep = sorted_eids[start:stop]
    sub = edge_subgraph(num_vertices, u, v, w, keep)
    out = Amst(cfg).run(sub)
    tel = current_telemetry()
    if tel is not None:
        tel.metrics.inc("fabric.worker.runs")
        tel.metrics.inc("fabric.worker.shard_edges", int(keep.size))
        tel.metrics.inc("fabric.worker.msf_edges",
                        int(out.result.edge_ids.size))
    return ((out.report, keep[out.result.edge_ids]),)
