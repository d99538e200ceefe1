"""Async job queue: priorities, per-client limits, guarded lifecycle.

The daemon accepts jobs faster than it can run them, so admission and
execution are decoupled: :meth:`JobQueue.submit` enqueues under a depth
limit and returns immediately; a fixed set of worker threads drains the
queue highest-priority-first (FIFO within a priority), never running
more than ``per_client_limit`` jobs of one client at a time — a noisy
client queues behind itself, not in front of everyone else.

Every state change goes through :meth:`JobQueue._transition`, which
enforces the :data:`~repro.serve.protocol.TRANSITIONS` machine, keeps
the per-state job counts and appends to the job's history (the
``/events`` stream reads that history).  Admission and
:meth:`JobQueue.depth` read those counts, so neither walks the jobs
served so far.  Worker exceptions never escape: a
:class:`~repro.serve.protocol.ServeError` becomes the job's structured
error verbatim, anything else becomes ``job_failed`` — the daemon keeps
serving either way, which is what the fault-injection suite pins down.

Shutdown drains: no new submissions (``shutting_down``), queued jobs
either run to completion (``drain=True``) or are cancelled, workers
join, and the queue's accounting ends balanced.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from .protocol import (
    JOB_STATES,
    TERMINAL_STATES,
    ServeError,
    assert_transition,
    error_body,
)

__all__ = ["Job", "JobQueue"]


@dataclass
class Job:
    """One unit of daemon work; mutable state guarded by the queue lock."""

    id: str
    kind: str
    client: str
    priority: int
    graph: str
    params: dict
    seq: int
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    cache_hit: bool = False
    #: the encoded JSON result; a run job holds its run-cache entry's
    #: bytes, shared with every other job of that (graph, config)
    result: bytes | None = None
    error: dict | None = None
    history: list[dict] = field(default_factory=list)

    def view(self) -> dict:
        """The canonical wire view (``protocol.JOB_VIEW_KEYS`` order)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "graph": self.graph,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "history": list(self.history),
        }

    def result_body(self) -> bytes:
        """The ``/result`` reply of a done job: its stored result bytes
        in the ``{"id", "cache_hit", "result"}`` envelope, byte-identical
        to ``json.dumps`` of that dict but never re-encoding the result.
        """
        return (b'{"id": ' + json.dumps(self.id).encode()
                + b', "cache_hit": ' + json.dumps(self.cache_hit).encode()
                + b', "result": ' + self.result + b"}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobQueue:
    """Priority queue + worker pool with per-client concurrency limits.

    Parameters
    ----------
    executor:
        ``executor(job) -> (result_bytes, cache_hit)`` — the daemon's
        per-kind job body (compute, cache lookup, telemetry), returning
        the job's encoded JSON result.  Called outside the queue lock.
    workers:
        Worker-thread count (the daemon's run concurrency).
    max_depth:
        Maximum number of non-terminal jobs admitted at once; beyond it
        submissions fail fast with ``queue_full``.
    per_client_limit:
        Maximum *running* jobs per client id.
    """

    def __init__(
        self,
        executor: Callable[[Job], tuple[bytes, bool]],
        *,
        workers: int = 2,
        max_depth: int = 64,
        per_client_limit: int = 2,
    ) -> None:
        self._executor = executor
        self._max_depth = max_depth
        self._per_client_limit = per_client_limit
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._pending: list[Job] = []  # queued, admission order
        self._running: dict[str, int] = {}  # client -> running count
        self._states = dict.fromkeys(JOB_STATES, 0)  # state -> jobs
        self._seq = 0
        self._draining = False
        self._stopped = False
        #: high-water mark of concurrent running jobs per client — the
        #: concurrency suite asserts this never exceeds the limit
        self.max_observed_running: dict[str, int] = {}
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"amst-serve-worker-{i}", daemon=True)
            for i in range(max(1, workers))
        ]
        for t in self._threads:
            t.start()

    # -- admission -----------------------------------------------------
    def submit(self, *, kind: str, client: str, priority: int,
               graph: str, params: dict) -> Job:
        with self._cond:
            if self._draining or self._stopped:
                raise ServeError("shutting_down",
                                 "daemon is draining; job rejected")
            live = self._live()
            if live >= self._max_depth:
                raise ServeError(
                    "queue_full",
                    f"queue depth limit {self._max_depth} reached",
                    {"depth": live})
            self._seq += 1
            job = Job(id=f"j{self._seq:06d}", kind=kind, client=client,
                      priority=priority, graph=graph, params=params,
                      seq=self._seq)
            job.history.append({"state": "queued",
                                "ts": job.submitted_at})
            self._jobs[job.id] = job
            self._states["queued"] += 1
            self._pending.append(job)
            self._cond.notify_all()
            return job

    # -- lookup / waiting ----------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError("not_found", f"unknown job {job_id!r}",
                                 {"id": job_id})
            return job

    def list(self) -> list[dict]:
        with self._lock:
            return [j.view() for j in
                    sorted(self._jobs.values(), key=lambda j: j.seq)]

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError("not_found", f"unknown job {job_id!r}",
                                 {"id": job_id})
            while not job.terminal:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return job

    def history_since(self, job_id: str, index: int,
                      timeout: float | None = None) -> list[dict]:
        """History entries past ``index``, blocking for new ones.

        Returns an empty list only on timeout; the ``/events`` NDJSON
        stream calls this in a loop until a terminal entry appears.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError("not_found", f"unknown job {job_id!r}",
                                 {"id": job_id})
            while len(job.history) <= index and not job.terminal:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(job.history[index:])

    def depth(self) -> dict:
        """Queue accounting snapshot (health endpoint + metrics)."""
        with self._lock:
            return {**self._states, "total": len(self._jobs)}

    # -- lifecycle (callers hold the lock) -----------------------------
    def _live(self) -> int:
        """Jobs admitted and not yet terminal."""
        return self._states["queued"] + self._states["running"]

    def _transition(self, job: Job, new: str,
                    error: dict | None = None) -> None:
        assert_transition(job.state, new)
        self._states[job.state] -= 1
        self._states[new] += 1
        job.state = new
        now = time.time()
        if new == "running":
            job.started_at = now
        elif new in TERMINAL_STATES:
            job.finished_at = now
            job.error = error
        job.history.append({"state": new, "ts": now})
        self._cond.notify_all()

    def fail_queued_for_graph(self, fingerprint: str) -> int:
        """Fail every *queued* job addressing an evicted graph.

        Running jobs already resolved their graph object and finish
        normally (the parent-side CSR arrays outlive the segment).
        Returns the number of jobs failed.
        """
        failed = 0
        with self._cond:
            for job in list(self._pending):
                if job.graph != fingerprint:
                    continue
                self._pending.remove(job)
                self._transition(job, "failed", error=error_body(
                    "graph_evicted",
                    f"graph {fingerprint} evicted while job queued",
                    {"fingerprint": fingerprint})["error"])
                failed += 1
        return failed

    # -- worker side ---------------------------------------------------
    def _next_job(self) -> Job | None:
        """Highest-priority eligible queued job (lock held), else None.

        FIFO within a priority; a client at its running limit is skipped
        so lower-priority work from other clients proceeds.
        """
        best = None
        for job in self._pending:
            if self._running.get(job.client, 0) >= self._per_client_limit:
                continue
            if best is None or job.priority > best.priority:
                best = job
        return best

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = self._next_job()
                while job is None:
                    if self._stopped:
                        return
                    self._cond.wait()
                    job = self._next_job()
                self._pending.remove(job)
                self._transition(job, "running")
                count = self._running.get(job.client, 0) + 1
                self._running[job.client] = count
                if count > self.max_observed_running.get(job.client, 0):
                    self.max_observed_running[job.client] = count
            result, error = None, None
            cache_hit = False
            try:
                result, cache_hit = self._executor(job)
            except ServeError as exc:
                error = exc.body()["error"]
            except BaseException as exc:  # noqa: BLE001 - never wedge
                error = error_body(
                    "job_failed",
                    f"{type(exc).__name__}: {exc}",
                    {"traceback": traceback.format_exc(limit=5)})["error"]
            with self._cond:
                self._running[job.client] -= 1
                if not self._running[job.client]:
                    del self._running[job.client]
                if error is None:
                    job.result = result
                    job.cache_hit = cache_hit
                    self._transition(job, "done")
                else:
                    self._transition(job, "failed", error=error)

    # -- shutdown ------------------------------------------------------
    def shutdown(self, *, drain: bool = True,
                 timeout: float = 30.0) -> dict:
        """Stop admissions, drain or cancel the backlog, join workers."""
        deadline = time.monotonic() + timeout
        with self._cond:
            self._draining = True
            if not drain:
                for job in list(self._pending):
                    self._pending.remove(job)
                    self._transition(job, "cancelled")
            while self._live():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # drain deadline passed: cancel what never started;
                    # running jobs keep their thread until they finish
                    for job in list(self._pending):
                        self._pending.remove(job)
                        self._transition(job, "cancelled")
                    break
                self._cond.wait(remaining)
            self._stopped = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=max(0.1, deadline - time.monotonic()))
        return self.depth()
