"""serve-session: an ``amst serve`` daemon under a closed-loop client.

The daemon runs as a subprocess with 2 worker threads on an ephemeral
port.  One client process drives it over 2 connections, one per client
id: client A works on RC, client B on CF.  Each sends its next job only
after the previous one returned (closed loop).  Every block of 10 jobs
of a client is a seeded shuffle of

* 7 ``run`` jobs with an already-computed (parallelism, cache_vertices)
  pair, answered from the run cache;
* 2 ``update`` jobs with an 8-edit ``random_batches`` batch, chained on
  the client's own fingerprint chain;
* 1 ``run`` with a not-yet-requested pair, a run-cache miss.

The mix keeps p50 inside the hit class and p95 inside the miss class.
Results are checked after the session: runs against in-process forests,
each update chain against an in-process ``IncrementalMst`` replay and,
at its end, a ``DynamicGraph`` + Kruskal replay.
"""

from __future__ import annotations

import hashlib
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from repro.bench.datasets import load
from repro.core import Amst, AmstConfig
from repro.incremental import DynamicGraph, IncrementalMst, random_batches
from repro.mst import kruskal
from repro.serve import ServeClient, ServeClientError

from common import (SETUP_REPEATS, Outcome, now, p50, p95, peak_rss_mb,
                    shm_segments, timed_median, vm_hwm_kb)

#: client id -> (dataset, size).  CF is lowered so that its misses cost
#: about what RC's do: one unimodal miss class holds p95
CLIENTS = {"A": ("RC", 1.0), "B": ("CF", 0.25)}
#: pairs computed during set-up, so a run with one of them is a cache hit
HIT_PAIRS = ((16, 4096), (8, 2048), (32, 8192))
#: every block of 10 consecutive jobs of a client holds exactly this mix,
#: in a seeded order, so the realised mix does not vary with the seed
DECK = ("run_hit",) * 7 + ("update",) * 2 + ("run_miss",)
BATCH_SIZE = 8
WORKERS = 2
BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0

EXPECTED_LAYERS = ("serve.registry.publish", "incremental.apply",
                   "runcache.get", "core.amst_run")

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(eids: np.ndarray, weight: float) -> str:
    """The daemon's forest digest: edge-id bytes plus the weight repr."""
    return hashlib.blake2b(
        np.asarray(eids, dtype=np.int64).tobytes() + b"|"
        + repr(weight).encode(), digest_size=16).hexdigest()


class Daemon:
    """One ``amst serve`` subprocess, optionally behind the trace launcher."""

    def __init__(self, ctx, trace_out: str | None) -> None:
        self.traced = trace_out is not None
        cli = ["serve", "--port", "0", "--workers", str(WORKERS)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *cli]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   trace_out, *cli]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.log = open(os.path.join(ctx.tmp, "daemon.log"), "w")
        t0 = now()
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.url = self._wait_for_url(t0 + BOOT_TIMEOUT_S)
        self.client = ServeClient(self.url, timeout=JOB_TIMEOUT_S)
        try:
            self.client.wait_until_up(timeout=BOOT_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.boot_s = now() - t0

    def _wait_for_url(self, deadline: float) -> str:
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline()
                if not line and self.proc.poll() is not None:
                    break
                found = re.search(r"listening on (http://\S+)", line)
                if found:
                    return found.group(1)
        self.kill()
        raise RuntimeError("amst serve did not report its address")

    def record(self, on: bool) -> None:
        """Switch the traced daemon's span recording on or off."""
        if self.traced:
            self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
            time.sleep(0.2)  # the handler runs on the daemon's main thread

    def hwm_kb(self) -> float:
        return vm_hwm_kb(self.proc.pid)

    def shutdown(self, out: Outcome) -> None:
        """Drain, check that no shm segment is left, wait for exit."""
        try:
            reply = self.client.shutdown(drain=True, timeout_s=30.0)
            out.check(not reply.get("shm_segments"),
                      f"daemon kept shm segments: {reply}")
            self.proc.communicate(timeout=60)
        except (ServeClientError, OSError, subprocess.TimeoutExpired) as exc:
            out.check(False, f"daemon shutdown: {exc!r}")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class _Client(threading.Thread):
    """One closed-loop client id over its own connection."""

    def __init__(self, url: str, name: str, base_fp: str, base_graph,
                 seed: int, deadline: float) -> None:
        super().__init__(name=f"client-{name}", daemon=True)
        self.api = ServeClient(url, timeout=JOB_TIMEOUT_S)
        self.client_id = name
        self.base_fp = base_fp
        self.rng = np.random.default_rng(seed)
        self.deck: list[str] = []
        self.batches = random_batches(base_graph, seed=seed + 1,
                                      batches=1 << 30, batch_size=BATCH_SIZE)
        self.deadline = deadline
        self.misses = 0
        self.records: list[tuple] = []  # (kind, seconds, ok, payload)
        self.updates: list[tuple] = []  # (batch, digest or None)

    def _next_job(self, chain_fp: str):
        if not self.deck:
            self.deck = list(self.rng.permutation(DECK))
        kind = self.deck.pop()
        if kind == "run_hit":
            par, cache = HIT_PAIRS[self.rng.integers(len(HIT_PAIRS))]
            return kind, "run", self.base_fp, {
                "parallelism": int(par), "cache_vertices": int(cache)}, None
        if kind == "run_miss":
            self.misses += 1
            return kind, "run", self.base_fp, {
                "parallelism": 16,
                "cache_vertices": 1024 + self.misses}, None
        batch = next(self.batches)
        params = {
            "inserts": [[int(u), int(v), float(w)] for u, v, w in zip(
                batch.insert_u, batch.insert_v, batch.insert_w)],
            "deletes": [int(e) for e in batch.delete_eids],
        }
        return kind, "update", chain_fp, params, batch

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # reported as a failed job, never lost
            self.records.append(("error", 0.0, False, repr(exc)))

    def _loop(self) -> None:
        chain_fp = self.base_fp
        while now() < self.deadline:
            kind, job_kind, graph, params, batch = self._next_job(chain_fp)
            t0 = now()
            try:
                job = self.api.submit(kind=job_kind, graph=graph,
                                      client=self.client_id, params=params)
                view = self.api.wait(job["id"], timeout_s=JOB_TIMEOUT_S)
                ok = view["state"] == "done"
                body = self.api.result(job["id"])["result"] if ok else view
            except (ServeClientError, OSError) as exc:
                ok, body = False, {"error": repr(exc)}
            seconds = now() - t0
            digest = body["forest"]["digest"] if ok else None
            self.records.append((kind, seconds, ok, digest or body))
            if batch is not None:
                self.updates.append((batch, digest))
                if not ok:
                    break  # the chain is broken; later batches are invalid
                if chain_fp != self.base_fp:
                    self.api.evict(chain_fp)  # keep one live chain state
                chain_fp = body["fingerprint"]


def _session(ctx, daemon: Daemon, graphs, fps, seconds: float, out):
    """Drive both clients for ``seconds``; return them and the wall time."""
    deadline = now() + seconds
    clients = [
        _Client(daemon.url, name, fps[name], graphs[name],
                ctx.seed * 1000 + i, deadline)
        for i, name in enumerate(CLIENTS)
    ]
    t0 = now()
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=seconds + 4 * JOB_TIMEOUT_S)
        out.check(not c.is_alive(), f"{c.name} did not finish")
    return clients, now() - t0


def _check(clients, graphs, expected, out: Outcome) -> None:
    """Runs against in-process forests; update chains against replays."""
    for c in clients:
        name = c.client_id
        for kind, _, ok, payload in c.records:
            if kind == "update":
                continue
            out.check(ok and payload == expected[name],
                      f"{name} {kind}: {payload}")
        engine = IncrementalMst(graphs[name])
        dyn = DynamicGraph(graphs[name])
        last = None
        for batch, digest in c.updates:
            engine.apply(batch)
            dyn.apply(batch)
            last = engine.forest()
            out.check(digest == _digest(last.edge_ids, last.total_weight),
                      f"{name} update: forest digest differs from replay")
        if last is not None:
            ref = kruskal(dyn.to_csr())
            out.check(np.array_equal(ref.edge_ids, last.edge_ids)
                      and repr(ref.total_weight) == repr(last.total_weight),
                      f"{name} update chain: replay differs from Kruskal")


def _server_p50_ms(text: str) -> float:
    """p50 of the daemon's job-seconds histogram (Prometheus estimate)."""
    buckets = []
    for bound, count in re.findall(
            r'serve_job_seconds_bucket\{le="([^"]+)"\} (\S+)', text):
        buckets.append((float(bound), float(count)))
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank, lower, prev = buckets[-1][1] / 2, 0.0, 0.0
    for bound, cum in buckets:
        if cum >= rank:
            if bound == float("inf"):
                return lower * 1e3
            frac = (rank - prev) / (cum - prev) if cum > prev else 1.0
            return (lower + (bound - lower) * frac) * 1e3
        lower, prev = bound, cum
    return lower * 1e3


def _counter(text: str, name: str) -> float:
    found = re.search(rf"^\S*{name}\S* (\S+)$", text, re.M)
    return float(found.group(1)) if found else 0.0


def _boot(ctx, trace_out, out, boots: int = 1):
    """Boot a daemon, publish both graphs, warm the hit pairs.

    The daemon is booted ``boots`` times, all but the last shut down
    again; the median boot time is reported.
    """
    boot_s = []
    for _ in range(boots - 1):
        probe = Daemon(ctx, None)
        boot_s.append(probe.boot_s)
        probe.shutdown(out)
    daemon = Daemon(ctx, trace_out)
    boot_s.append(daemon.boot_s)

    def publish():
        return {name: daemon.client.publish(
            dataset=key, seed=ctx.seed, scale=size * ctx.size)["fingerprint"]
            for name, (key, size) in CLIENTS.items()}

    try:
        publish_s, fps = timed_median(publish)
        for name in CLIENTS:
            for par, cache in HIT_PAIRS:
                daemon.client.run_to_completion(
                    kind="run", graph=fps[name], client=name,
                    params={"parallelism": par, "cache_vertices": cache},
                    timeout_s=JOB_TIMEOUT_S)
    except BaseException:
        daemon.kill()
        raise
    return daemon, fps, p50(boot_s) + publish_s


def run(ctx) -> Outcome:
    out = Outcome()

    graphs = {name: load(key, seed=ctx.seed, size=size * ctx.size)
              for name, (key, size) in CLIENTS.items()}
    expected = {}
    for name, g in graphs.items():
        res = Amst(AmstConfig.full(16, cache_vertices=4096)).run(g)
        ref = kruskal(g)
        out.check(np.array_equal(res.result.edge_ids, ref.edge_ids),
                  f"{name}: in-process Amst differs from Kruskal")
        expected[name] = _digest(ref.edge_ids, res.result.total_weight)
    edges = {name: g.num_edges for name, g in graphs.items()}
    before = shm_segments()

    def session(trace_out, seconds, boots=1):
        daemon, fps, setup_s = _boot(ctx, trace_out, out, boots)
        try:
            daemon.record(True)
            if trace_out is None:
                clients, wall = _session(ctx, daemon, graphs, fps, seconds,
                                         out)
            else:
                with ctx.rec.root():
                    clients, wall = _session(ctx, daemon, graphs, fps,
                                             seconds, out)
            daemon.record(False)
            metrics = daemon.client.metrics_text()
            hwm = daemon.hwm_kb()
        finally:
            daemon.shutdown(out)
        _check(clients, graphs, expected, out)
        leaked = shm_segments() - before
        out.check(not leaked, f"leaked shm segments: {sorted(leaked)}")
        return clients, wall, metrics, hwm, setup_s

    if ctx.rec is None:
        clients, wall, _, hwm, setup_s = session(None, ctx.seconds,
                                                 SETUP_REPEATS)
        lat = [r[1] for c in clients for r in c.records]
        answered = sum(edges[c.client_id] for c in clients
                       for r in c.records if r[2])
        out.metrics.update({
            "setup_s": ctx.import_s + setup_s,
            "peak_rss_mb": peak_rss_mb(hwm),
            "medges_per_s": answered / wall / 1e6,
            "p50_ms": p50(lat) * 1e3,
            "p95_ms": p95(lat) * 1e3,
        })
        return out

    half = ctx.seconds / 2
    clients, _, _, _, _ = session(None, half)
    untraced = p50([r[1] for c in clients for r in c.records])
    trace_out = os.path.join(ctx.tmp, "daemon-spans.json")
    clients, wall, metrics, _, _ = session(trace_out, half)
    ctx.rec.load(trace_out)
    by_kind = {kind: [r[1] for c in clients for r in c.records
                      if r[0] == kind] for kind in set(DECK)}
    traced = p50([r[1] for c in clients for r in c.records])
    server = _server_p50_ms(metrics)
    done = _counter(metrics, "serve_jobs_done")
    out.metrics.update({
        "trace.overhead_s": traced - untraced,
        **{f"serve.job_ms.{kind}": p50(v) * 1e3 if v else 0.0
           for kind, v in by_kind.items()},
        "serve.server_job_ms.p50": server,
        "serve.overhead_ms": traced * 1e3 - server,
        "serve.jobs_per_s": sum(
            r[2] for c in clients for r in c.records) / wall,
        "serve.cache_hit_ratio":
            _counter(metrics, "serve_jobs_cache_hits") / done if done
            else 0.0,
    })
    return out
