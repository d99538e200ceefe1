"""Host-side wall-clock profiling of the simulator itself.

The event ledger (``repro.core.events``) counts *simulated* work —
operations the RTL would execute, priced in cycles by ``perf.py``.  This
module measures the orthogonal quantity: how long the *Python simulator*
spends in each part of a run on the host.  Every performance PR against
the simulator should quote these numbers before/after (see
``docs/PERFORMANCE.md``).

Three granularities, all timed by :meth:`HostTimers.section`:

* **per stage** — ``stage.fm`` (Finding), ``stage.rm_am`` (the merged
  Removing/Appending pass) and ``stage.cm`` (Compressing), recorded by
  :class:`~repro.core.accelerator.Amst` around each module call;
* **per subsystem** — ``sub.cache.parent`` / ``sub.cache.minedge`` /
  ``sub.hbm`` via :class:`TimedSubsystem` proxies wrapped around the
  cache and HBM models, plus ``sub.network`` (the sorting-network /
  MinEdge-writer commit) and ``sub.resolve_roots`` recorded inline;
* **per kernel** — ``kernel.<name>`` around each call of a
  :mod:`repro.kernels.numpy_impl` kernel.

Sections nest, so a row is inclusive of the rows timed inside it.  The
snapshot lands in ``PerfReport.extra["host_timing"]`` and
``amst run --profile-host`` renders it with :func:`format_host_profile`.
While a run has a telemetry :class:`~repro.obs.spans.SpanRecorder`
attached, every section is also a span stamped from the same two clock
readings, so the profile and the Chrome trace agree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..obs.spans import SpanRecorder

__all__ = ["HostTimers", "TimedSubsystem", "format_host_profile"]

#: cache methods whose batched calls are attributed to the cache subsystem
CACHE_METHODS = ("lookup", "write", "contains", "mark_dead")
#: HBM-model methods attributed to the HBM subsystem
HBM_METHODS = ("access_sequential", "access_random", "access_blocks")
#: span category of each section-name prefix
_CATEGORIES = {"stage": "stage", "sub": "subsystem", "kernel": "kernel"}


@dataclass
class HostTimers:
    """Named wall-clock accumulators (seconds + call counts).

    ``recorder`` is the run's telemetry span recorder while one is
    attached (``Amst.run`` sets and clears it); ``None`` otherwise.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    recorder: SpanRecorder | None = field(default=None, repr=False)

    @contextmanager
    def section(self, name: str):
        """Time a ``with`` block under ``name`` (re-entrant across calls).

        The only host-time clock reader: two ``perf_counter_ns``
        readings, added to ``name``'s sum and count and, with a recorder
        attached, recorded as a span whose category comes from the name
        prefix.  The span bookkeeping sits outside the timed interval.
        """
        recorder = self.recorder
        if recorder is not None:
            span = recorder.begin(name, _CATEGORIES[name.partition(".")[0]])
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.add(name, (end - start) * 1e-9)
            if recorder is not None:
                recorder.end(span, start, end)

    def add(self, name: str, elapsed: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict export (what ``PerfReport.extra`` carries)."""
        return {
            name: {"seconds": self.seconds[name],
                   "calls": self.calls.get(name, 0)}
            for name in sorted(self.seconds)
        }


class TimedSubsystem:
    """Transparent proxy timing selected methods of a wrapped object.

    Every attribute is forwarded to the wrapped instance; the methods
    named in ``methods`` are returned wrapped in a timer section, so the
    caches and the HBM model need no knowledge of profiling.  Cache/HBM
    calls are already batched (one call per vector of ids), so the
    per-call section overhead is negligible.
    """

    def __init__(self, inner, timers: HostTimers, name: str,
                 methods: tuple[str, ...]) -> None:
        self._inner = inner
        self._timers = timers
        self._name = name
        self._methods = frozenset(methods)

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            # Never forward private/dunder probes: pickle interrogates
            # a freshly allocated (empty-dict) instance for __setstate__
            # before _inner exists, and forwarding would recurse forever.
            # AmstOutput must pickle — parallel scale-out workers return
            # it across the process pool.
            raise AttributeError(attr)
        value = getattr(self._inner, attr)
        if attr in self._methods:
            section, name = self._timers.section, self._name

            def timed(*args, **kwargs):
                with section(name):
                    return value(*args, **kwargs)

            return timed
        return value


def format_host_profile(timers, *, counts_only: bool = False) -> str:
    """Fixed-width table of host time per stage, subsystem and kernel.

    Accepts either a :class:`HostTimers` or its :meth:`~HostTimers.snapshot`
    dict (the form ``PerfReport.extra["host_timing"]`` carries).  Stage
    rows sum to (roughly) the simulated part of the run; subsystem rows
    are attributions *within* the stages, so the two groups each show
    their own share column and do not double-count.

    The rendering is deterministic: rows are sorted by timer name (an
    explicit stable sort, independent of insertion order) and every
    float is printed in a fixed-precision, fixed-width column.  With
    ``counts_only=True`` the wall-clock columns are dropped entirely and
    only the (deterministic) call counts remain, so two runs of the same
    workload produce byte-identical output — the form the CLI and the
    determinism test diff.
    """
    if isinstance(timers, dict):
        snap = timers
        timers = HostTimers(
            seconds={k: v["seconds"] for k, v in snap.items()},
            calls={k: int(v.get("calls", 0)) for k, v in snap.items()},
        )
    if counts_only:
        lines = ["host profile (call counts only)",
                 "-------------------------------"]
    else:
        lines = ["host profile (wall-clock, simulator itself)",
                 "--------------------------------------------"]
    header_len = len(lines)
    for prefix, title in (
        ("stage.", "per stage"),
        ("sub.", "per subsystem"),
        ("kernel.", "per kernel"),
    ):
        rows = sorted(
            (k, v) for k, v in timers.seconds.items() if k.startswith(prefix)
        )
        if not rows:
            continue
        group_total = sum(v for _, v in rows)
        lines.append(f"{title}:")
        for name, secs in rows:
            calls = int(timers.calls.get(name, 0))
            if counts_only:
                lines.append(f"  {name:<22s} {calls:>9d} calls")
                continue
            share = 100.0 * secs / group_total if group_total else 0.0
            lines.append(
                f"  {name:<22s} {secs * 1e3:12.3f} ms "
                f"{share:5.1f} %  {calls:>9d} calls"
            )
    if len(lines) == header_len:
        lines.append("  (no samples recorded)")
    return "\n".join(lines) + "\n"
