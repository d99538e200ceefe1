"""The AMST daemon: HTTP front-end over registry + queue + cache.

``AmstDaemon`` is the long-lived composition the ROADMAP's serving item
describes: graphs are published once into the in-process
:class:`~repro.serve.registry.GraphRegistry` and addressed by content
fingerprint; run/verify/sweep jobs flow through the prioritized
:class:`~repro.serve.jobs.JobQueue`; every run job consults the
content-addressed :class:`~repro.bench.runcache.RunCache` first, so a
warm repeat answers without touching the simulator; and the telemetry
layer records a per-job run manifest plus a ``serve.*`` metric
namespace exported at ``/v1/metrics`` (Prometheus text).

The run cache keeps what the daemon serves, not the simulator run: one
:class:`_ServedRun` per ``(graph, config)`` holding the encoded result
(and, with ``runs_dir``, the run's metrics snapshot for manifests).
Every job of that pair holds a reference to the same bytes, and the
``/result`` route wraps them without encoding them again.

The HTTP tier is the stdlib ``ThreadingHTTPServer`` — one thread per
request, JSON in/out, every failure mapped to the structured error
shapes pinned in :mod:`repro.serve.protocol`.  Graceful shutdown stops
admissions, drains in-flight jobs, evicts every graph and writes the
session manifest before the listener stops (see docs/SERVING.md).

Jobs run on the queue's worker threads and call their bodies directly
(``Amst.run``, ``run_oracle``, the sweep task ``amst sweep`` runs) on
the registry's graph, shared by reference: the daemon has no second
process to hand a copy to.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..bench.runcache import RunCache, config_fingerprint
from ..core.accelerator import Amst
from ..core.config import AmstConfig
from ..graph.csr import CSRGraph
from ..graph.shm import owned_segments
from ..obs import RunStore, Telemetry
from ..obs.context import new_run_context
from .jobs import Job, JobQueue
from .protocol import (
    PROTOCOL,
    ServeError,
    describe,
    error_body,
    parse_job_request,
)
from .registry import GraphRegistry

__all__ = ["DaemonConfig", "AmstDaemon"]

#: parameter allowlist per job kind — unknown keys are a ``bad_request``
#: at submission time, so typos fail fast instead of queueing garbage
_PARAM_KEYS = {
    "run": {"parallelism", "cache_vertices", "self_check"},
    "verify": {"certify"},
    "sweep": {"name", "cache_vertices", "seed"},
    "update": {"inserts", "deletes", "fallback_fraction"},
}
#: test-only fault-injection keys, rejected unless the daemon opted in
_FAULT_KEYS = {"fault", "sleep_s"}

#: job wall-clock histogram buckets (seconds)
_JOB_SECONDS_BUCKETS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)


#: incremental engines kept warm per graph fingerprint (update jobs)
_MAX_LIVE_ENGINES = 8

#: memory-tier entries of the daemon's run cache (``served:`` bodies,
#: the oracle's and the incremental engine's entries)
_CACHE_MEMORY_ENTRIES = 256

#: how long a coalesced run job waits for the in-flight leader before
#: computing on its own (leader crash insurance, not a normal path)
_SINGLEFLIGHT_WAIT_S = 300.0


class _SingleFlight:
    """Per-key in-flight compute dedup for the run path.

    The first caller to :meth:`leader` for a key becomes the leader
    (gets ``None``) and must call :meth:`done` when the cache is
    populated; every other caller gets the leader's event to wait on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}

    def leader(self, key: str) -> threading.Event | None:
        with self._lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
            return event

    def done(self, key: str) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()


@dataclass(frozen=True)
class _ServedRun:
    """The run cache's ``served:`` entry: what the daemon sends again.

    ``body`` is the encoded :func:`_run_payload` JSON.  With
    ``runs_dir`` set, ``metrics`` is the ``MetricsRegistry.as_dict()``
    snapshot of ``Telemetry.record_output`` over the run and ``summary``
    its forest size and weight, so a hit job's manifest carries what
    the miss's did.  No simulator state outlives the miss.
    """

    body: bytes
    metrics: dict | None = None
    summary: dict | None = None


@dataclass(frozen=True)
class DaemonConfig:
    """Knobs of one daemon instance (all CLI-settable)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read AmstDaemon.port after start()
    workers: int = 2
    max_depth: int = 64
    per_client_limit: int = 2
    runs_dir: str | None = None  # per-job manifests when set
    allow_fault_injection: bool = False  # test harness hook


class AmstDaemon:
    """One serving session: registry + queue + cache + telemetry."""

    def __init__(self, config: DaemonConfig | None = None) -> None:
        self.config = config or DaemonConfig()
        self.registry = GraphRegistry()
        self.cache = RunCache(max_memory_entries=_CACHE_MEMORY_ENTRIES)
        self.telemetry = Telemetry(context=new_run_context(
            command="serve"))
        self.metrics = self.telemetry.metrics
        self.queue = JobQueue(
            self._execute_job,
            workers=self.config.workers,
            max_depth=self.config.max_depth,
            per_client_limit=self.config.per_client_limit,
        )
        self.started = time.time()
        self._singleflight = _SingleFlight()
        # warm incremental engines, keyed by current graph fingerprint;
        # updates are serialized under the lock (they mutate the engine)
        self._engines: "OrderedDict[str, object]" = OrderedDict()
        self._engine_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._draining = False
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("daemon not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "AmstDaemon":
        """Bind and serve in a background thread (tests, embedding)."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="amst-serve-http",
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground serving loop (``amst serve``)."""
        if self._httpd is None:
            self.start()
        assert self._thread is not None
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            self.shutdown(drain=True, timeout=10.0)

    def shutdown(self, *, drain: bool = True,
                 timeout: float = 30.0) -> dict:
        """Stop admissions, drain jobs, evict graphs, persist the session.

        Idempotent; returns the final accounting the ``/v1/shutdown``
        response carries.
        """
        summary = self._wind_down(drain, timeout)
        self._stop_listener()
        return summary

    def _wind_down(self, drain: bool, timeout: float) -> dict:
        """Everything :meth:`shutdown` does but stopping the listener."""
        with self._state_lock:
            first = not self._draining
            self._draining = True
        depth = self.queue.shutdown(drain=drain, timeout=timeout)
        self.registry.close()
        manifest = None
        if first and self.config.runs_dir:
            self.telemetry.record_shm()
            self.telemetry.record_runcache(self.cache)
            self._refresh_gauges()
            self.telemetry.summary = {
                "jobs": depth,
                "graphs_published": int(
                    self.metrics.counters.get(
                        "serve.graphs.published", 0)),
            }
            manifest = str(RunStore(self.config.runs_dir).write(
                self.telemetry))
        return {
            "jobs": depth,
            "shm_segments": list(owned_segments()),
            "session_manifest": manifest,
        }

    def _stop_listener(self) -> None:
        if self._httpd is not None:
            # stop the listener from a helper thread: shutdown() blocks
            # until serve_forever exits, and we may be on a handler
            # thread that serve_forever is indirectly waiting on
            httpd = self._httpd
            threading.Thread(target=httpd.shutdown, daemon=True).start()

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    # ------------------------------------------------------------------
    # Graph publication
    # ------------------------------------------------------------------
    def publish_graph(self, body: dict) -> dict:
        """``POST /v1/graphs``: build or decode a graph, register it.

        Accepts either a dataset spec (``{"dataset", "seed", "scale"}``
        — built server-side with the Table I generators) or an inline
        edge list (``{"edges": {"num_vertices", "u", "v", "w"}}``).
        """
        if self.draining:
            raise ServeError("shutting_down",
                             "daemon is draining; publish rejected")
        if not isinstance(body, dict):
            raise ServeError("bad_request",
                             "publish body must be a JSON object")
        name = body.get("name", "")
        if "dataset" in body:
            from ..bench.datasets import SUITE, load

            tag = body["dataset"]
            known = sorted(spec.key for spec in SUITE)
            if tag not in known:
                raise ServeError("bad_request",
                                 f"unknown dataset tag {tag!r}",
                                 {"field": "dataset", "available": known})
            graph = load(tag, seed=int(body.get("seed", 0)),
                         size=float(body.get("scale", 1.0)))
            name = name or tag
        elif "edges" in body:
            graph = _graph_from_edges(body["edges"])
        else:
            raise ServeError(
                "bad_request",
                "publish body needs a 'dataset' tag or an 'edges' object")
        record, reused = self.registry.publish(graph, name=name)
        self.metrics.inc(
            "serve.graphs.reused" if reused else "serve.graphs.published")
        view = record.view()
        view["reused"] = reused
        return view

    def evict_graph(self, fingerprint: str) -> dict:
        """``DELETE /v1/graphs/{fp}``: fail queued jobs, evict, purge."""
        failed = self.queue.fail_queued_for_graph(fingerprint)
        view = self.registry.evict(fingerprint)
        dropped = self.cache.drop_fingerprint(fingerprint)
        self.metrics.inc("serve.graphs.evicted")
        view.update({"evicted": True, "failed_queued_jobs": failed,
                     "dropped_cache_entries": dropped})
        return view

    # ------------------------------------------------------------------
    # Job admission + execution
    # ------------------------------------------------------------------
    def submit_job(self, body: object) -> Job:
        if self.draining:
            raise ServeError("shutting_down",
                             "daemon is draining; job rejected")
        req = parse_job_request(body)
        self._validate_params(req["kind"], req["params"])
        self.registry.get(req["graph"])  # structured 404/409 up front
        job = self.queue.submit(**req)
        self.metrics.inc("serve.jobs.submitted")
        self.metrics.inc(f"serve.jobs.kind.{job.kind}")
        return job

    def _validate_params(self, kind: str, params: dict) -> None:
        allowed = set(_PARAM_KEYS[kind])
        if self.config.allow_fault_injection:
            allowed |= _FAULT_KEYS
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise ServeError(
                "bad_request",
                f"unknown parameter(s) for kind {kind!r}: {unknown}",
                {"field": "params", "unknown": unknown})
        if kind == "sweep":
            from ..bench.sweeps import SWEEPS

            name = params.get("name")
            if name not in SWEEPS:
                raise ServeError("bad_request",
                                 f"unknown sweep {name!r}",
                                 {"field": "params.name",
                                  "available": sorted(SWEEPS)})
        if kind == "update":
            _parse_update_batch(params)  # shape errors fail at admission

    def _execute_job(self, job: Job) -> tuple[bytes, bool]:
        """Worker body: fault hooks, cache-first compute, telemetry.

        Returns the job's encoded JSON result: a run job's comes from
        its cache entry, every other kind encodes its dict once here.
        """
        t0 = time.monotonic()
        # resolve first: a job that is already running keeps its graph
        # object even if the fingerprint is evicted mid-flight
        graph = self.registry.get(job.graph).graph
        self._inject_faults(job)
        if job.kind == "run":
            body, hit = self._execute_run(job, graph)
        else:
            execute = {"verify": self._execute_verify,
                       "update": self._execute_update,
                       "sweep": self._execute_sweep}[job.kind]
            payload, hit = execute(job, graph)
            body = json.dumps(payload).encode()
        seconds = time.monotonic() - t0
        self.metrics.inc("serve.jobs.done")
        if hit:
            self.metrics.inc("serve.jobs.cache_hits")
        else:
            self.metrics.inc("serve.jobs.computed")
        self.metrics.observe("serve.job.seconds", seconds,
                             buckets=_JOB_SECONDS_BUCKETS)
        return body, hit

    def _inject_faults(self, job: Job) -> None:
        if not self.config.allow_fault_injection:
            return
        sleep_s = job.params.get("sleep_s")
        if sleep_s:
            time.sleep(float(sleep_s))
        if job.params.get("fault") == "crash":
            raise RuntimeError(
                f"injected fault: worker crash in job {job.id}")

    def _job_config(self, params: dict) -> AmstConfig:
        cfg = AmstConfig.full(
            int(params.get("parallelism", 16)),
            cache_vertices=int(params.get("cache_vertices", 1 << 19)))
        return cfg.with_(self_check=True) if params.get("self_check") else cfg

    def _execute_run(self, job: Job,
                     graph: CSRGraph) -> tuple[bytes, bool]:
        cfg = self._job_config(job.params)
        # its own prefix: a value is the encoded body, not the oracle's
        # ``oracle:`` payload for the same (graph, config)
        key = f"served:{job.graph}:{config_fingerprint(cfg)}"

        def compute() -> _ServedRun:
            out = Amst(cfg).run(graph)
            body = json.dumps(_run_payload(out, cfg)).encode()
            if not self.config.runs_dir:
                return _ServedRun(body)
            # a throwaway bundle on the session's context (no git call):
            # only its registry is kept, as the manifests' snapshot
            tel = Telemetry(context=self.telemetry.context)
            tel.record_output(out)
            return _ServedRun(body, tel.metrics.as_dict(), {
                "forest_edges": int(out.result.num_edges),
                "total_weight": float(out.result.total_weight),
            })

        hit = True
        entry = self.cache.get(key)
        while entry is None:
            event = self._singleflight.leader(key)
            if event is None:
                # we own the compute for everyone queued on this key
                try:
                    self.cache.note_miss(key)
                    entry = compute()
                    self.cache.put(key, entry)
                finally:
                    self._singleflight.done(key)
                hit = False
                break
            event.wait(timeout=_SINGLEFLIGHT_WAIT_S)
            entry = self.cache.get(key)
            if entry is not None:
                self.metrics.inc("serve.singleflight.coalesced")
            # else: the leader failed — loop and take leadership
        self._record_job_manifest(job, cfg, entry)
        return entry.body, hit

    def _execute_verify(self, job: Job,
                        graph: CSRGraph) -> tuple[dict, bool]:
        from ..verify import run_oracle

        report = run_oracle(
            graph, cache=self.cache,
            certify=bool(job.params.get("certify", True)))
        # this call's own count: the daemon-wide hit counter also moves
        # for certificates and for other jobs running concurrently
        hit = report.tasks_run == 0
        payload = {
            "ok": report.ok,
            "num_vertices": report.num_vertices,
            "num_edges": report.num_edges,
            "canonical": report.canonical,
            "entries": {
                name: {
                    "weight": repr(e.exact_weight),
                    "edges": int(e.edge_ids.size),
                    "components": int(e.num_components),
                    "digest": hashlib.blake2b(
                        e.edge_ids.tobytes(),
                        digest_size=16).hexdigest(),
                }
                for name, e in report.entries.items()
            },
            "mismatches": [str(m) for m in report.mismatches],
        }
        if not report.ok:
            payload["report"] = report.format()
        return payload, hit

    def _execute_sweep(self, job: Job,
                       graph: CSRGraph) -> tuple[dict, bool]:
        from ..bench.executor import _sweep_task

        name = job.params["name"]
        text = _sweep_task(
            name, graph=graph,
            cache_vertices=int(job.params.get("cache_vertices", 1 << 19)),
            base_seed=int(job.params.get("seed", 0))).to_text()
        return {
            "name": name,
            "text": text,
            "digest": hashlib.blake2b(
                text.encode(), digest_size=16).hexdigest(),
        }, False

    def _execute_update(self, job: Job,
                        graph: CSRGraph) -> tuple[dict, bool]:
        """Apply an update batch to a published graph.

        Content addressing stays functional: the base graph keeps its
        fingerprint and record, the updated graph is published as a new
        registry entry, and the response carries the new fingerprint so
        clients chain further updates against it.  A warm
        ``IncrementalMst`` engine follows the fingerprint chain, so a
        stream of small update jobs never pays a full recompute.
        """
        from ..incremental import IncrementalConfig, IncrementalMst

        batch = _parse_update_batch(job.params)
        config = IncrementalConfig(fallback_fraction=float(
            job.params.get("fallback_fraction", 0.25)))
        base = self.registry.get(job.graph)
        with self._engine_lock:
            engine = self._engines.pop(job.graph, None)
            if engine is None:
                engine = IncrementalMst(
                    base.graph, config=config, cache=self.cache)
            else:
                engine.config = config
            try:
                stats = engine.apply(batch)
                engine.check_invariants()
            except ValueError as exc:
                raise ServeError("bad_request", str(exc),
                                 {"field": "params"}) from exc
            record, reused = self.registry.publish(
                engine.graph(), name=base.view().get("name", ""))
            self._engines[record.fingerprint] = engine
            while len(self._engines) > _MAX_LIVE_ENGINES:
                self._engines.popitem(last=False)
            forest = engine.forest()
        self.metrics.inc(
            "serve.graphs.reused" if reused else "serve.graphs.published")
        eids = forest.edge_ids
        digest = hashlib.blake2b(
            eids.tobytes() + b"|" + repr(forest.total_weight).encode(),
            digest_size=16).hexdigest()
        view = record.view()
        view["reused"] = reused
        return {
            "base": job.graph,
            "fingerprint": record.fingerprint,
            "graph": view,
            "stats": stats.to_dict(),
            "forest": {
                "num_edges": int(eids.size),
                "total_weight": float(forest.total_weight),
                "weight_repr": repr(forest.total_weight),
                "num_components": int(forest.num_components),
                "digest": digest,
            },
        }, stats.cache_hit

    def _record_job_manifest(self, job: Job, cfg: AmstConfig,
                             entry: _ServedRun) -> None:
        """Per-job run manifest under ``<runs_dir>/<session>-<job>/``.

        Builds a dedicated telemetry bundle (NOT the ambient one — jobs
        run concurrently on worker threads and the ambient slot is
        process-global) from the cache entry's metrics snapshot, so a
        hit's manifest equals its miss's, and persists it through the
        existing RunStore.
        """
        if not self.config.runs_dir:
            return
        tel = Telemetry(context=new_run_context(
            run_id=self._job_run_id(job.id),
            command=f"serve:{job.kind}",
            graph_fingerprint=job.graph,
            config_fingerprint=config_fingerprint(cfg),
            labels={"client": job.client, "job": job.id}))
        with tel.spans.span(f"job:{job.id}", category="run"):
            pass
        tel.metrics.merge_snapshot(entry.metrics)
        tel.summary = {
            "job": job.id,
            "kind": job.kind,
            "client": job.client,
            **entry.summary,
        }
        RunStore(self.config.runs_dir).write(tel)

    def _job_run_id(self, job_id: str) -> str:
        """Run id of a job's manifest: the session's, then the job's."""
        return f"{self.telemetry.context.run_id}-{job_id}"

    def job_manifest(self, job_id: str) -> dict:
        job = self.queue.get(job_id)  # 404 on unknown id
        if not (self.config.runs_dir and job.kind == "run"
                and job.state == "done"):
            raise ServeError(
                "not_found",
                f"no manifest recorded for job {job_id!r} "
                "(daemon started without --runs-dir, job not a run, "
                "or job not finished)",
                {"id": job_id})
        return RunStore(self.config.runs_dir).load_manifest(
            self._job_run_id(job_id))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "protocol": PROTOCOL,
            "session": self.telemetry.context.run_id,
            "uptime_seconds": time.time() - self.started,
            "graphs": len(self.registry),
            "queue": self.queue.depth(),
        }

    def _refresh_gauges(self) -> None:
        depth = self.queue.depth()
        self.metrics.set_gauge("serve.queue.queued",
                               float(depth["queued"]))
        self.metrics.set_gauge("serve.queue.running",
                               float(depth["running"]))
        self.metrics.set_gauge("serve.uptime.seconds",
                               time.time() - self.started)
        self.metrics.set_gauge("serve.graphs.registered",
                               float(len(self.registry)))
        # run-cache tiers, including the delta: family the incremental
        # engine feeds; gauge-named to stay clear of the shutdown-time
        # ``runcache.*`` counter fold
        for name, value in self.cache.stats().items():
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                continue
            self.metrics.set_gauge(f"serve.runcache.{name}", float(value))

    def prometheus_text(self) -> str:
        self._refresh_gauges()
        return self.metrics.to_prometheus()


# ----------------------------------------------------------------------
# Wire shapes
# ----------------------------------------------------------------------
def _run_payload(out, cfg: AmstConfig) -> dict:
    """JSON view of one ``AmstOutput`` with a byte-identity digest."""
    r = out.report
    eids = out.result.edge_ids
    digest = hashlib.blake2b(
        eids.tobytes() + b"|" + repr(out.result.total_weight).encode(),
        digest_size=16).hexdigest()
    return {
        "forest": {
            "edge_ids": [int(x) for x in eids],
            "total_weight": float(out.result.total_weight),
            "weight_repr": repr(out.result.total_weight),
            "num_components": int(out.result.num_components),
            "digest": digest,
        },
        "report": {
            "iterations": int(r.num_iterations),
            "total_cycles": float(r.total_cycles),
            "dram_blocks": int(r.dram_blocks),
            "dram_random_blocks": int(r.dram_random_blocks),
            "seconds": float(r.seconds),
            "meps": float(r.meps),
            "energy_joules": float(r.energy_joules),
        },
        "config_fingerprint": config_fingerprint(cfg),
    }


def _parse_update_batch(params: dict):
    """Build an ``UpdateBatch`` from update-job params (wire shape:
    ``inserts`` = list of ``[u, v, w]`` triples, ``deletes`` = list of
    compact eids).  Raises ``ServeError("bad_request")`` on any shape
    or value problem — called at admission *and* at execution."""
    from ..incremental import UpdateBatch

    inserts = params.get("inserts", [])
    deletes = params.get("deletes", [])
    if not isinstance(inserts, list) or not all(
            isinstance(row, (list, tuple)) and len(row) == 3
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in row)
            for row in inserts):
        raise ServeError(
            "bad_request", "inserts must be a list of [u, v, w] triples",
            {"field": "params.inserts"})
    if not isinstance(deletes, list) or not all(
            isinstance(x, int) and not isinstance(x, bool)
            for x in deletes):
        raise ServeError(
            "bad_request", "deletes must be a list of integer edge ids",
            {"field": "params.deletes"})
    if not inserts and not deletes:
        raise ServeError("bad_request",
                         "update batch needs inserts and/or deletes",
                         {"field": "params"})
    fraction = params.get("fallback_fraction", 0.25)
    if isinstance(fraction, bool) or not isinstance(
            fraction, (int, float)) or not 0.0 < float(fraction) <= 1.0:
        raise ServeError(
            "bad_request", "fallback_fraction must be a float in (0, 1]",
            {"field": "params.fallback_fraction", "got": fraction})
    try:
        return UpdateBatch.of(inserts=inserts, deletes=deletes)
    except ValueError as exc:
        raise ServeError("bad_request", str(exc),
                         {"field": "params"}) from exc


def _graph_from_edges(spec: object) -> CSRGraph:
    import numpy as np

    from ..graph.builders import from_edges

    if not isinstance(spec, dict):
        raise ServeError("bad_request", "edges must be a JSON object")
    try:
        n = int(spec["num_vertices"])
        u = np.asarray(spec["u"], dtype=np.int64)
        v = np.asarray(spec["v"], dtype=np.int64)
        w = np.asarray(spec["w"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(
            "bad_request",
            f"edges object needs num_vertices/u/v/w arrays ({exc})")
    if not (u.shape == v.shape == w.shape) or u.ndim != 1:
        raise ServeError("bad_request",
                         "u/v/w must be 1-D arrays of equal length")
    if n <= 0 or (u.size and (u.min() < 0 or v.min() < 0
                              or max(u.max(), v.max()) >= n)):
        raise ServeError("bad_request",
                         "vertex ids must lie in [0, num_vertices)")
    return from_edges(n, u, v, w)


# ----------------------------------------------------------------------
# HTTP tier
# ----------------------------------------------------------------------
def _make_handler(daemon: AmstDaemon):
    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.0 close-per-request keeps the streaming endpoint
        # trivially correct (NDJSON until EOF, no chunked framing)
        server_version = "amst-serve/1"

        def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
            pass  # request logging goes through metrics, not stderr

        # -- plumbing --------------------------------------------------
        def _read_json(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ServeError("bad_request", "empty request body")
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServeError("bad_request",
                                 f"request body is not valid JSON: {exc}")

        def _send_json(self, status: int, payload: dict) -> None:
            self._send_body(status, json.dumps(payload).encode())

        def _send_body(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_error_body(self, exc: ServeError) -> None:
            self._send_json(exc.status, exc.body())

        def _dispatch(self, method: str) -> None:
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            query = parse_qs(parsed.query)
            daemon.metrics.inc("serve.requests.total")
            try:
                self._route(method, parts, query)
            except ServeError as exc:
                daemon.metrics.inc("serve.requests.errors")
                self._send_error_body(exc)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 - never wedge
                daemon.metrics.inc("serve.requests.errors")
                self._send_json(500, error_body(
                    "internal", f"{type(exc).__name__}: {exc}"))

        # -- routing ---------------------------------------------------
        def _route(self, method: str, parts: list[str],
                   query: dict) -> None:
            if not parts or parts[0] != "v1":
                raise ServeError("not_found",
                                 f"unknown route {self.path!r}")
            tail = parts[1:]
            if method == "GET" and tail == ["health"]:
                self._send_json(200, daemon.health())
            elif method == "GET" and tail == ["protocol"]:
                self._send_json(200, describe())
            elif method == "GET" and tail == ["metrics"]:
                text = daemon.prometheus_text().encode()
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(text)))
                self.end_headers()
                self.wfile.write(text)
            elif method == "POST" and tail == ["graphs"]:
                self._send_json(201, daemon.publish_graph(
                    self._read_json()))
            elif method == "GET" and tail == ["graphs"]:
                self._send_json(200, {"graphs": daemon.registry.list()})
            elif method == "DELETE" and len(tail) == 2 \
                    and tail[0] == "graphs":
                self._send_json(200, daemon.evict_graph(tail[1]))
            elif method == "POST" and tail == ["jobs"]:
                job = daemon.submit_job(self._read_json())
                self._send_json(202, job.view())
            elif method == "GET" and tail == ["jobs"]:
                self._send_json(200, {"jobs": daemon.queue.list()})
            elif method == "GET" and len(tail) == 2 \
                    and tail[0] == "jobs":
                self._send_json(200, daemon.queue.get(tail[1]).view())
            elif method == "GET" and len(tail) == 3 \
                    and tail[0] == "jobs":
                self._job_subresource(tail[1], tail[2], query)
            elif method == "POST" and tail == ["shutdown"]:
                body = {}
                if int(self.headers.get("Content-Length") or 0):
                    body = self._read_json()
                summary = daemon._wind_down(
                    bool(body.get("drain", True)),
                    float(body.get("timeout_s", 30.0)))
                try:
                    self._send_json(200, summary)
                finally:
                    # only now: `amst serve` exits once the listener
                    # stops, and an earlier stop could cut this reply
                    daemon._stop_listener()
            else:
                raise ServeError(
                    "not_found",
                    f"unknown route {method} {self.path!r}",
                    {"routes": list(describe()["routes"])})

        def _job_subresource(self, job_id: str, sub: str,
                             query: dict) -> None:
            if sub == "result":
                job = daemon.queue.get(job_id)
                if job.state == "done":
                    self._send_body(200, job.result_body())
                elif job.terminal:
                    self._send_json(
                        job.error and STATUS_OF(job.error) or 500,
                        {"error": job.error or error_body(
                            "job_failed", "job did not succeed")["error"],
                         "id": job.id, "state": job.state})
                else:
                    raise ServeError(
                        "result_not_ready",
                        f"job {job_id} is {job.state!r}; poll "
                        "/wait or /events", {"state": job.state})
            elif sub == "wait":
                timeout = float(query.get("timeout_s", ["30"])[0])
                job = daemon.queue.wait(job_id, timeout=timeout)
                self._send_json(200, job.view())
            elif sub == "events":
                self._stream_events(job_id, query)
            elif sub == "manifest":
                self._send_json(200, daemon.job_manifest(job_id))
            else:
                raise ServeError(
                    "not_found",
                    f"unknown job subresource {sub!r}")

        def _stream_events(self, job_id: str, query: dict) -> None:
            """NDJSON state-transition stream until a terminal state."""
            timeout = float(query.get("timeout_s", ["30"])[0])
            deadline = time.monotonic() + timeout
            daemon.queue.get(job_id)  # 404 before headers go out
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            index = 0
            while True:
                remaining = deadline - time.monotonic()
                entries = daemon.queue.history_since(
                    job_id, index, timeout=max(0.0, min(remaining, 1.0)))
                for entry in entries:
                    self.wfile.write(
                        (json.dumps({"id": job_id, **entry}) + "\n")
                        .encode())
                    self.wfile.flush()
                index += len(entries)
                if entries and entries[-1]["state"] in (
                        "done", "failed", "cancelled"):
                    return
                if remaining <= 0:
                    return

        # -- stdlib entry points ---------------------------------------
        def do_GET(self):  # noqa: N802
            self._dispatch("GET")

        def do_POST(self):  # noqa: N802
            self._dispatch("POST")

        def do_DELETE(self):  # noqa: N802
            self._dispatch("DELETE")

    return Handler


def STATUS_OF(error: dict) -> int:
    """HTTP status for a stored job error (defaults to 500)."""
    from .protocol import STATUS_FOR_CODE

    return STATUS_FOR_CODE.get(error.get("code", "internal"), 500)
