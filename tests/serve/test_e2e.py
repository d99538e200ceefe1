"""End-to-end acceptance: the daemon lifecycle the issue pins down.

One daemon session: publish a Table I dataset analog → 8 concurrent
jobs from 2 clients at mixed priorities → every result byte-identical
to a serial ``amst run`` → warm resubmission served from the RunCache
(asserted through the ``serve.*`` and ``runcache.*`` metrics) →
graceful shutdown that drains the queue and leaves **zero** shm
segments.  Plus a subprocess boot of the real ``amst serve`` CLI.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.bench.datasets import load
from repro.core import Amst
from repro.graph.shm import owned_segments
from repro.obs import Telemetry
from repro.obs.regress import DEFAULT_SKIP_PREFIXES
from repro.serve import AmstDaemon, DaemonConfig, ServeClient

from .conftest import assert_run_matches_serial, job_config, serial_run

pytestmark = pytest.mark.serve

DATASET = ("EF", 3, 0.2)  # tag, seed, scale — tiny but non-trivial
PARAMS_A = {"parallelism": 4, "cache_vertices": 512}
PARAMS_B = {"parallelism": 16, "cache_vertices": 256}


class TestAcceptance:
    def test_full_daemon_lifecycle(self, tmp_path):
        tag, seed, scale = DATASET
        daemon = AmstDaemon(DaemonConfig(
            port=0, workers=3, per_client_limit=2,
            runs_dir=str(tmp_path / "runs"))).start()
        client = ServeClient(daemon.url, timeout=180.0)
        try:
            # -- publish: dataset built server-side, content-addressed
            pub = client.publish(dataset=tag, seed=seed, scale=scale,
                                 name="accept")
            fp = pub["fingerprint"]
            assert pub["reused"] is False
            assert pub["num_edges"] > 0
            assert pub["shm_segments"]
            # idempotent republication
            assert client.publish(dataset=tag, seed=seed,
                                  scale=scale)["reused"] is True
            graph = load(tag, seed=seed, size=scale)

            # -- 8 concurrent jobs, 2 clients, mixed priorities/configs
            specs = [("alice", i % 6, PARAMS_A if i < 4 else PARAMS_B)
                     if i % 2 == 0 else
                     ("bob", (7 - i) % 6, PARAMS_A if i < 4 else PARAMS_B)
                     for i in range(8)]
            results: list = [None] * 8
            failures: list = []

            def one(i, spec):
                who, prio, params = spec
                try:
                    results[i] = client.run_to_completion(
                        kind="run", graph=fp, client=who, priority=prio,
                        params=params, timeout_s=180.0)
                except Exception as exc:  # noqa: BLE001
                    failures.append((i, repr(exc)))

            threads = [threading.Thread(target=one, args=(i, s))
                       for i, s in enumerate(specs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180.0)
            assert failures == []

            # -- byte-identity against serial runs of the same configs
            expected_a = serial_run(graph, PARAMS_A)
            expected_b = serial_run(graph, PARAMS_B)
            for i, body in enumerate(results):
                assert_run_matches_serial(
                    body, expected_a if i < 4 else expected_b)
            # first job per config computed; repeats within the batch
            # may race the cache, but none may diverge
            assert sum(1 for b in results if not b["cache_hit"]) >= 2

            # -- warm resubmission: a cache hit, same bytes
            warm = client.run_to_completion(kind="run", graph=fp,
                                            params=PARAMS_A,
                                            timeout_s=60.0)
            assert warm["cache_hit"] is True
            assert_run_matches_serial(warm, expected_a)
            counters = daemon.metrics.counters
            assert counters.get("serve.jobs.cache_hits", 0) >= 1
            assert counters.get("serve.jobs.computed", 0) >= 2
            assert counters.get("serve.jobs.submitted", 0) == 9
            assert daemon.cache.stats()["hits"] >= 1
            prom = client.metrics_text()
            assert "serve_jobs_cache_hits" in prom.replace(".", "_")

            # -- per-job manifest persisted through the RunStore
            done = [j for j in client.jobs() if j["state"] == "done"]
            manifest = client.manifest(done[0]["id"])
            assert manifest["run"]["command"] == "serve:run"
            assert manifest["summary"]["forest_edges"] == len(
                expected_a["edge_ids"])
            assert manifest["metrics"]

            # -- graceful shutdown: drained, zero shm, session manifest
            mine = set(daemon.registry.active_segments())
            assert mine and mine <= set(owned_segments())
            summary = client.shutdown(drain=True, timeout_s=60.0)
            assert summary["jobs"]["queued"] == 0
            assert summary["jobs"]["running"] == 0
            assert summary["jobs"]["done"] == 9
            assert summary["shm_segments"] == []
            assert daemon.registry.active_segments() == ()
            assert not mine & set(owned_segments())
            session = summary["session_manifest"]
            assert session and os.path.isdir(session)
            with open(os.path.join(session, "manifest.json"),
                      encoding="utf-8") as fh:
                session_manifest = json.load(fh)
            assert session_manifest["summary"]["jobs"]["done"] == 9
            assert session_manifest["summary"]["graphs_published"] == 1
        finally:
            daemon.shutdown(drain=False, timeout=10.0)


class TestHitManifests:
    def test_hit_writes_the_manifest_its_miss_wrote(self, make_daemon,
                                                     client_for, tmp_path):
        """A cache hit's manifest carries the metrics and summary of the
        simulator run its miss recorded, not an empty or partial set."""
        tag, seed, scale = DATASET
        daemon = make_daemon(runs_dir=str(tmp_path / "runs"))
        client = client_for(daemon)
        fp = client.publish(dataset=tag, seed=seed,
                            scale=scale)["fingerprint"]
        bodies = [client.run_to_completion(kind="run", graph=fp,
                                           params=params, timeout_s=120.0)
                  for params in (PARAMS_A, PARAMS_B, PARAMS_A)]
        miss, _, hit = bodies
        assert (miss["cache_hit"], hit["cache_hit"]) == (False, True)
        assert hit["result"] == miss["result"]
        m_miss, m_hit = client.manifest(miss["id"]), client.manifest(
            hit["id"])
        assert m_hit["metrics"] == m_miss["metrics"]
        assert m_hit["summary"] == {**m_miss["summary"], "job": hit["id"]}
        assert m_hit["run"]["config_fingerprint"] == \
            m_miss["run"]["config_fingerprint"]

        # what Telemetry.record_output writes from the run itself
        # (wall-clock namespaces aside)
        tel = Telemetry()
        tel.record_output(Amst(job_config(PARAMS_A)).run(
            load(tag, seed=seed, size=scale)))

        def deterministic(metrics: dict) -> dict:
            return {k: v for k, v in metrics.items()
                    if not k.startswith(DEFAULT_SKIP_PREFIXES)}

        want = deterministic(tel.metrics.flat())
        assert want and deterministic(m_hit["metrics"]) == want
        assert set(m_hit["metrics"]) == set(tel.metrics.flat())
        assert m_hit["summary"]["forest_edges"] == len(
            miss["result"]["forest"]["edge_ids"])


class TestCliSubprocess:
    def test_amst_serve_boots_and_serves_real_clients(self, tmp_path):
        """The shipped CLI pair, over a real socket, as a real process."""
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(port), "--workers", "2"],
            cwd="/root/repo", env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=120.0)
        try:
            health = client.wait_until_up(timeout=30.0)
            assert health["protocol"] == "amst-serve/1"

            fp = client.publish(dataset="EF", seed=1,
                                scale=0.1)["fingerprint"]
            body = client.run_to_completion(
                kind="run", graph=fp, params=PARAMS_A, timeout_s=120.0)
            expected = serial_run(load("EF", seed=1, size=0.1),
                                  PARAMS_A)
            assert_run_matches_serial(body, expected)

            summary = client.shutdown(drain=True, timeout_s=30.0)
            assert summary["shm_segments"] == []
            out, _ = proc.communicate(timeout=30.0)
            assert proc.returncode == 0
            assert b"listening on" in out
            assert b"shut down" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
