"""Fault-injection suite: the daemon degrades structurally, never wedges.

Every failure mode the issue names — worker crash mid-job, malformed
request bytes, graph evicted under queued jobs — must surface as a
structured protocol error while the daemon keeps serving, and a full
shutdown must report zero shared-memory segments.
"""

import json
import time
from http.client import HTTPConnection

import pytest

from repro.graph.shm import owned_segments
from repro.serve import (
    AmstDaemon,
    DaemonConfig,
    ServeClientError,
)

from .conftest import edge_payload

pytestmark = pytest.mark.serve

PARAMS = {"parallelism": 4, "cache_vertices": 512}


def _raw_request(daemon, method, path, body=b"", headers=None):
    """A request below the ServeClient abstraction (malformed bytes)."""
    conn = HTTPConnection("127.0.0.1", daemon.port, timeout=30.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


class TestWorkerCrash:
    def test_injected_crash_is_structured_and_survivable(
            self, make_daemon, client_for):
        daemon = make_daemon(workers=2, allow_fault_injection=True)
        client = client_for(daemon, timeout=120.0)
        fp = client.publish(edges=edge_payload(seed=1))["fingerprint"]

        job = client.submit(kind="run", graph=fp,
                            params={"fault": "crash", **PARAMS})
        view = client.wait(job["id"], timeout_s=60.0)
        assert view["state"] == "failed"
        assert view["error"]["code"] == "job_failed"
        assert "injected fault" in view["error"]["message"]
        assert "traceback" in view["error"]["details"]

        # the result route mirrors the stored error with a 500
        with pytest.raises(ServeClientError) as info:
            client.result(job["id"])
        assert info.value.status == 500
        assert info.value.code == "job_failed"

        # daemon keeps serving: health answers, a clean job completes
        assert client.health()["status"] == "ok"
        ok = client.run_to_completion(kind="run", graph=fp,
                                      params=PARAMS, timeout_s=120.0)
        assert ok["result"]["forest"]["digest"]

    def test_fault_params_rejected_without_harness_flag(
            self, make_daemon, client_for):
        daemon = make_daemon(workers=1)  # fault injection OFF
        client = client_for(daemon)
        fp = client.publish(edges=edge_payload(seed=2))["fingerprint"]
        with pytest.raises(ServeClientError) as info:
            client.submit(kind="run", graph=fp,
                          params={"fault": "crash"})
        assert info.value.code == "bad_request"
        assert "fault" in info.value.details["unknown"]
        # there is one kernel tier, so `backend` is an unknown key too
        with pytest.raises(ServeClientError) as info:
            client.submit(kind="run", graph=fp,
                          params={"backend": "numba"})
        assert info.value.code == "bad_request"
        assert "backend" in info.value.details["unknown"]


class TestMalformedRequests:
    def test_invalid_json_body_is_400(self, make_daemon):
        daemon = make_daemon(workers=1)
        status, body = _raw_request(
            daemon, "POST", "/v1/jobs", body=b"not json{{",
            headers={"Content-Type": "application/json"})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "not valid JSON" in body["error"]["message"]

    def test_empty_body_is_400(self, make_daemon):
        daemon = make_daemon(workers=1)
        status, body = _raw_request(daemon, "POST", "/v1/jobs")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_wrong_shape_is_field_level_400(self, make_daemon,
                                            client_for):
        daemon = make_daemon(workers=1)
        client = client_for(daemon)
        fp = client.publish(edges=edge_payload(seed=3))["fingerprint"]
        with pytest.raises(ServeClientError) as info:
            client.submit(kind="explode", graph=fp)
        assert info.value.code == "bad_request"
        assert info.value.details["field"] == "kind"

    def test_unknown_route_is_404_with_route_table(self, make_daemon):
        daemon = make_daemon(workers=1)
        status, body = _raw_request(daemon, "GET", "/v1/nonsense")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "GET /v1/health" in body["error"]["details"]["routes"]

    def test_unknown_job_is_404(self, make_daemon, client_for):
        daemon = make_daemon(workers=1)
        client = client_for(daemon)
        with pytest.raises(ServeClientError) as info:
            client.status("j999999")
        assert info.value.status == 404

    def test_result_before_terminal_is_409(self, make_daemon,
                                           client_for):
        daemon = make_daemon(workers=1, allow_fault_injection=True)
        client = client_for(daemon)
        fp = client.publish(edges=edge_payload(seed=4))["fingerprint"]
        job = client.submit(kind="run", graph=fp,
                            params={"sleep_s": 0.5, **PARAMS})
        with pytest.raises(ServeClientError) as info:
            client.result(job["id"])
        assert info.value.code == "result_not_ready"
        assert info.value.status == 409
        assert client.wait(job["id"],
                           timeout_s=120.0)["state"] == "done"


class TestEvictionUnderLoad:
    def test_evict_fails_queued_jobs_spares_running(self, make_daemon,
                                                    client_for):
        daemon = make_daemon(workers=1, allow_fault_injection=True)
        client = client_for(daemon, timeout=120.0)
        fp = client.publish(edges=edge_payload(seed=6))["fingerprint"]

        running = client.submit(kind="run", graph=fp, client="a",
                                params={"sleep_s": 0.6, **PARAMS})
        queued = [client.submit(kind="run", graph=fp, client="b",
                                params=PARAMS) for _ in range(2)]
        # wait until the sleeper actually holds the worker
        deadline = time.monotonic() + 10.0
        while (client.status(running["id"])["state"] != "running"
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert client.status(running["id"])["state"] == "running"

        view = client.evict(fp)
        assert view["evicted"] is True
        assert view["failed_queued_jobs"] == 2

        for job in queued:
            ended = client.wait(job["id"], timeout_s=30.0)
            assert ended["state"] == "failed"
            assert ended["error"]["code"] == "graph_evicted"
        # the running job resolved its graph before eviction: it wins
        survivor = client.wait(running["id"], timeout_s=120.0)
        assert survivor["state"] == "done"

        # new submissions against the tombstone are structured 409s
        with pytest.raises(ServeClientError) as info:
            client.submit(kind="run", graph=fp, params=PARAMS)
        assert info.value.code == "graph_evicted"
        assert info.value.status == 409
        assert client.health()["status"] == "ok"

    def test_evict_drops_cache_entries(self, make_daemon, client_for):
        daemon = make_daemon(workers=1)
        client = client_for(daemon, timeout=120.0)
        payload = edge_payload(seed=8)
        fp = client.publish(edges=payload)["fingerprint"]
        client.run_to_completion(kind="run", graph=fp, params=PARAMS,
                                 timeout_s=120.0)
        view = client.evict(fp)
        assert view["dropped_cache_entries"] >= 1
        # republish clears the tombstone; the next run recomputes
        fp2 = client.publish(edges=payload)["fingerprint"]
        assert fp2 == fp
        body = client.run_to_completion(kind="run", graph=fp,
                                        params=PARAMS, timeout_s=120.0)
        assert body["cache_hit"] is False


class TestShutdownHygiene:
    def test_graceful_shutdown_drains_and_evicts(self, client_for):
        shm_before = owned_segments()
        daemon = AmstDaemon(DaemonConfig(
            port=0, workers=2, allow_fault_injection=True)).start()
        client = client_for(daemon, timeout=120.0)
        fp = client.publish(edges=edge_payload(seed=10))["fingerprint"]

        jobs = [client.submit(kind="run", graph=fp,
                              params={"sleep_s": 0.2, **PARAMS})
                for _ in range(3)]
        summary = client.shutdown(drain=True, timeout_s=60.0)
        assert summary["shm_segments"] == []
        assert summary["jobs"]["queued"] == 0
        assert summary["jobs"]["running"] == 0
        assert summary["jobs"]["done"] == 3

        # drained jobs completed with results despite the shutdown race
        for job in jobs:
            assert daemon.queue.get(job["id"]).state == "done"
        assert len(daemon.registry) == 0
        assert owned_segments() == shm_before

        # post-shutdown admissions are structured 503s (if the
        # listener is already down, connection refusal is also fine)
        try:
            client.submit(kind="run", graph=fp, params=PARAMS)
        except ServeClientError as exc:
            assert exc.code in ("shutting_down", "graph_evicted")
        except OSError:
            pass
        else:
            pytest.fail("submit accepted after shutdown")

    def test_no_drain_cancels_backlog(self, client_for):
        daemon = AmstDaemon(DaemonConfig(
            port=0, workers=1, allow_fault_injection=True)).start()
        client = client_for(daemon, timeout=60.0)
        fp = client.publish(edges=edge_payload(seed=12))["fingerprint"]
        client.submit(kind="run", graph=fp,
                      params={"sleep_s": 0.4, **PARAMS})
        backlog = [client.submit(kind="run", graph=fp, params=PARAMS)
                   for _ in range(2)]
        summary = client.shutdown(drain=False, timeout_s=30.0)
        assert summary["jobs"]["cancelled"] == 2
        assert summary["shm_segments"] == []
        for job in backlog:
            assert daemon.queue.get(job["id"]).state == "cancelled"
