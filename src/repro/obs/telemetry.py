"""The per-run telemetry bundle: context + metrics + spans.

One :class:`Telemetry` object accompanies one run (or one CLI command):
it owns the :class:`~repro.obs.context.RunContext`, a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.spans.SpanRecorder`, plus the adapters that fold the
repo's existing counting surfaces into the registry:

* :meth:`Telemetry.record_output` — event ledger, cache stats, host
  timers and the performance report of one ``AmstOutput``;
* :meth:`Telemetry.record_runcache` — the content-addressed run cache's
  public ``stats()`` snapshot;
* :meth:`Telemetry.record_shm` — the shared-memory store's
  publish/attach/fallback counters.

Everything here *reads* finished state; nothing feeds back into the
simulation, which is the invariant the byte-identity tests pin down.

Cross-process: :func:`worker_payload` snapshots a worker's telemetry
into a picklable :class:`WorkerTelemetry`, and
:meth:`Telemetry.merge_worker` folds it into the parent under the same
run ID (spans keep their worker pid, so the merged Chrome trace shows
one lane per process).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import RunContext, new_run_context
from .metrics import MetricsRegistry
from .spans import Span, SpanRecorder, to_chrome_trace

__all__ = ["Telemetry", "WorkerTelemetry", "worker_payload"]

#: per-iteration cycle histogram buckets (log-spaced, cycles)
_ITER_CYCLE_BUCKETS = (
    1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7,
)


@dataclass
class WorkerTelemetry:
    """Picklable snapshot a pool worker ships back to the parent."""

    run_id: str
    pid: int
    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


class Telemetry:
    """Run-scoped telemetry: one context, one registry, one recorder."""

    def __init__(self, context: RunContext | None = None) -> None:
        self.context = context or new_run_context()
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder()
        #: optional result summary the manifest writer picks up
        self.summary: dict | None = None
        #: pid that owns the merged trace (set by the parent process)
        import os

        self.root_pid = os.getpid()

    # -- adapters over existing counting surfaces ----------------------
    def record_output(self, out) -> None:
        """Fold one finished ``AmstOutput`` into the metrics tree.

        Namespaces: ``sim.*`` (performance report), ``events.*`` (the
        ledger's grand totals), ``cache.parent.*`` / ``cache.minedge.*``
        (cache-model counters), ``host.*`` (wall-clock timers) and
        ``kernel.*`` (the ``kernel.*`` timer rows again: wall clock
        under ``kernel.time.``, call counts under ``kernel.dispatch.``).
        """
        import dataclasses

        from ..core.perf import iteration_cycles

        rep = out.report
        m = self.metrics
        m.set_gauge("sim.iterations", float(rep.num_iterations))
        m.set_gauge("sim.cycles.total", float(rep.total_cycles))
        for mod, cycles in sorted(rep.module_cycles.items()):
            m.set_gauge(f"sim.cycles.{mod}", float(cycles))
        m.set_gauge("sim.cycles.hidden", float(rep.overlap_cycles_hidden))
        m.set_gauge("sim.seconds", rep.seconds)
        m.set_gauge("sim.meps", rep.meps)
        m.set_gauge("sim.energy_joules", rep.energy_joules)
        m.inc("sim.dram.blocks", int(rep.dram_blocks))
        m.inc("sim.dram.random_blocks", int(rep.dram_random_blocks))
        m.inc("sim.edges", int(rep.num_edges))
        m.inc("sim.forest_edges", int(out.result.num_edges))

        for name, value in out.log.to_metrics("events").items():
            m.inc(name, value)

        for ev in out.log.iterations:
            cycles = iteration_cycles(ev, rep.cfg)
            total = (cycles["fm"].total + cycles["rape"].total
                     + cycles["cm"].total)
            m.observe("sim.iteration_cycles", total,
                      buckets=_ITER_CYCLE_BUCKETS)

        for label, cache in (("parent", out.state.parent_cache),
                             ("minedge", out.state.minedge_cache)):
            stats = getattr(cache, "stats", None)
            if stats is None:
                continue
            for f in dataclasses.fields(stats):
                m.inc(f"cache.{label}.{f.name}",
                      int(getattr(stats, f.name)))
            m.set_gauge(f"cache.{label}.hit_rate", stats.hit_rate)

        host = rep.extra.get("host_timing", {})
        for name, entry in sorted(host.items()):
            calls = int(entry.get("calls", 0))
            m.set_gauge(f"host.{name}.seconds", entry["seconds"])
            m.inc(f"host.{name}.calls", calls)
            if name.startswith("kernel."):
                # mirror under the kernel namespace: `runs diff` skips
                # the wall clock and diffs the deterministic call counts
                m.set_gauge(f"kernel.time.{name[7:]}.seconds",
                            entry["seconds"])
                m.inc(f"kernel.dispatch.{name[7:]}", calls)

    def record_runcache(self, cache) -> None:
        """Fold a ``RunCache.stats()`` snapshot into ``runcache.*``."""
        for name, value in cache.stats().items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                self.metrics.inc(f"runcache.{name}", value)

    def record_shm(self) -> None:
        """Fold the shared-memory store counters into ``shm.*``."""
        from ..graph.shm import shm_counters

        for name, value in shm_counters().items():
            self.metrics.inc(f"shm.{name}", value)

    # -- cross-process merge -------------------------------------------
    def merge_worker(self, payload: WorkerTelemetry) -> None:
        """Fold a worker's spans and metrics in, under this run ID."""
        self.spans.extend(payload.spans)
        self.metrics.merge_snapshot(payload.metrics)

    # -- export --------------------------------------------------------
    def chrome_trace(self) -> dict:
        return to_chrome_trace(
            self.spans.spans,
            run_id=self.context.run_id,
            parent_pid=self.root_pid,
        )


def worker_payload(telemetry: Telemetry) -> WorkerTelemetry:
    """Snapshot a worker-side telemetry for the trip back to the parent."""
    import os

    return WorkerTelemetry(
        run_id=telemetry.context.run_id,
        pid=os.getpid(),
        spans=telemetry.spans.drain(),
        metrics=telemetry.metrics.as_dict(),
    )
