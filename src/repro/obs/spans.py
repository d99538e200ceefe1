"""Hierarchical spans and Chrome trace-event export.

A span is one timed interval with an identity in the run's tree:
run → iteration → stage → subsystem → kernel (and, across processes,
task → run → …).  The recorder keeps an explicit open-span stack per
thread, so parentage is structural — a span opened while another is
open is its child — and the whole run serializes to the Chrome
trace-event JSON that ``chrome://tracing`` and Perfetto load directly
(``"X"`` complete events on ``pid``/``tid`` lanes, ``"M"`` metadata
events naming the lanes).

Timestamps are **epoch microseconds**: every span is stamped from two
``time.perf_counter_ns`` readings plus an epoch offset read once per
process, so a span has the host timers' clock (a
:meth:`~repro.core.timing.HostTimers.section` records its span from the
very readings it times) while a worker's spans still land on the
parent's timeline.  Workers ship their finished span lists back through
the executor (see ``repro.bench.executor``); span ids are unique per
``(pid, recorder)``, so merged traces key spans by ``(pid, id)``.

:func:`validate_span_tree` is the well-formedness check the tests and
the CI schema gate use: per ``(pid, tid)`` lane, spans must nest
strictly (no partial overlap), every ``parent_id`` must resolve to an
enclosing span, and tree-level categories
(iteration/stage/subsystem/kernel) must not float as orphan roots.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecorder",
    "to_chrome_trace",
    "validate_span_tree",
]

#: categories that only make sense *inside* a parent span
_NESTED_CATEGORIES = frozenset({"iteration", "stage", "subsystem", "kernel"})

#: epoch minus ``perf_counter`` (ns), read once per process
_EPOCH_OFFSET_NS = time.time_ns() - time.perf_counter_ns()


def _epoch_us(perf_ns: int) -> int:
    """Epoch microseconds of a ``time.perf_counter_ns`` reading."""
    return (perf_ns + _EPOCH_OFFSET_NS) // 1000


# Span ids are allocated from one process-global counter, not per
# recorder: a reused pool worker builds a fresh recorder per task, and
# per-recorder ids would collide within the worker's pid when the
# parent merges several of its task payloads.
_id_lock = threading.Lock()
_id_counter = 0


def _alloc_id() -> int:
    global _id_counter
    with _id_lock:
        sid = _id_counter
        _id_counter += 1
    return sid


@dataclass(frozen=True)
class Span:
    """One closed interval in the run tree (picklable)."""

    id: int
    parent_id: int | None
    name: str
    category: str
    start_us: int
    dur_us: int
    pid: int
    tid: int
    args: tuple[tuple[str, object], ...] = ()

    @property
    def end_us(self) -> int:
        return self.start_us + self.dur_us


class _OpenSpan:
    """Mutable handle for a span on the stack (yielded by ``span``)."""

    __slots__ = ("id", "parent_id", "name", "category", "args")

    def __init__(self, id: int, parent_id: int | None, name: str,
                 category: str, args: dict) -> None:
        self.id = id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.args = args


@dataclass
class SpanRecorder:
    """Collects spans; parentage comes from the per-thread open stack."""

    spans: list[Span] = field(default_factory=list)
    _local: threading.local = field(
        default_factory=threading.local, repr=False)

    def _stack(self) -> list[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, category: str,
              args: dict | None = None) -> _OpenSpan:
        """Push a child of whatever is currently on the stack."""
        stack = self._stack()
        open_span = _OpenSpan(_alloc_id(), stack[-1].id if stack else None,
                              name, category, args or {})
        stack.append(open_span)
        return open_span

    def end(self, open_span: _OpenSpan, start_ns: int, end_ns: int) -> None:
        """Pop ``open_span`` and record it over two ``perf_counter_ns``
        readings taken inside its begin/end pair."""
        self._stack().pop()
        start_us = _epoch_us(start_ns)
        self.spans.append(Span(
            id=open_span.id,
            parent_id=open_span.parent_id,
            name=open_span.name,
            category=open_span.category,
            start_us=start_us,
            dur_us=_epoch_us(end_ns) - start_us,
            pid=os.getpid(),
            tid=threading.get_native_id(),
            args=tuple(sorted(open_span.args.items())),
        ))

    @contextmanager
    def span(self, name: str, category: str = "span", **args):
        """Open a child span of whatever is currently on the stack."""
        open_span = self.begin(name, category, args)
        start = time.perf_counter_ns()
        try:
            yield open_span
        finally:
            self.end(open_span, start, time.perf_counter_ns())

    def extend(self, spans: list[Span]) -> None:
        """Merge finished spans shipped back from a worker process."""
        self.spans.extend(spans)

    def drain(self) -> list[Span]:
        """Return and clear the finished spans (worker hand-off)."""
        out, self.spans = self.spans, []
        return out


# ----------------------------------------------------------------------
# Validation: the well-formedness contract the tests and CI pin down
# ----------------------------------------------------------------------
def validate_span_tree(spans: list[Span]) -> list[str]:
    """Structural problems in a span list ([] when well-formed).

    Checks, per ``(pid, tid)`` lane: strict nesting (a span either
    contains or is disjoint from every other — no partial overlap);
    globally: ``parent_id`` resolves within the same pid, parents
    contain their children, and iteration/stage/subsystem/kernel spans
    have a parent (no orphan tree levels).
    """
    problems: list[str] = []
    by_key = {(s.pid, s.id): s for s in spans}
    if len(by_key) != len(spans):
        problems.append("duplicate (pid, id) span keys")

    lanes: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        lanes.setdefault((s.pid, s.tid), []).append(s)
    for (pid, tid), lane in sorted(lanes.items()):
        lane.sort(key=lambda s: (s.start_us, -s.dur_us, s.id))
        stack: list[Span] = []
        for s in lane:
            while stack and s.start_us >= stack[-1].end_us:
                stack.pop()
            if stack and s.end_us > stack[-1].end_us:
                problems.append(
                    f"pid {pid} tid {tid}: span {s.name!r} "
                    f"[{s.start_us}, {s.end_us}) partially overlaps "
                    f"{stack[-1].name!r} [{stack[-1].start_us}, "
                    f"{stack[-1].end_us})"
                )
            stack.append(s)

    for s in spans:
        if s.parent_id is None:
            if s.category in _NESTED_CATEGORIES:
                problems.append(
                    f"orphan {s.category} span {s.name!r} (no parent)")
            continue
        parent = by_key.get((s.pid, s.parent_id))
        if parent is None:
            problems.append(
                f"span {s.name!r} references missing parent "
                f"{s.parent_id} in pid {s.pid}"
            )
            continue
        if not (parent.start_us <= s.start_us
                and s.end_us <= parent.end_us):
            problems.append(
                f"span {s.name!r} [{s.start_us}, {s.end_us}) escapes "
                f"parent {parent.name!r} [{parent.start_us}, "
                f"{parent.end_us})"
            )
    return problems


# ----------------------------------------------------------------------
# Chrome trace-event export (chrome://tracing and Perfetto both load it)
# ----------------------------------------------------------------------
def to_chrome_trace(
    spans: list[Span],
    *,
    run_id: str = "",
    parent_pid: int | None = None,
) -> dict:
    """Chrome trace-event JSON for one run's (merged) span list."""
    events: list[dict] = []
    pids = sorted({s.pid for s in spans})
    tids = sorted({(s.pid, s.tid) for s in spans})
    for pid in pids:
        role = "parent" if pid == parent_pid else "worker"
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"amst {role} (pid {pid})"},
        })
    for pid, tid in tids:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": f"tid {tid}"},
        })
    for s in sorted(spans, key=lambda s: (s.pid, s.tid, s.start_us, s.id)):
        args = dict(s.args)
        args["span_id"] = s.id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append({
            "ph": "X", "name": s.name, "cat": s.category or "span",
            "ts": s.start_us, "dur": s.dur_us,
            "pid": s.pid, "tid": s.tid, "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id},
    }
