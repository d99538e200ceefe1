"""The ``update`` job kind and the run-path single-flight dedup.

Satellite coverage for PR 9: an update job applies a batch to a
published graph, publishes the mutated graph as a new registry entry,
and returns a forest byte-identical to a from-scratch Kruskal over the
updated edge set; chained updates ride the warm engine; malformed
batches die at admission; identical concurrent runs coalesce onto one
compute (``serve.singleflight.coalesced``); and the RunCache stats —
delta tier included — surface as ``serve.runcache.*`` gauges on
``/v1/metrics``.
"""

import hashlib
import json
import threading
import time

import pytest

import repro.serve.server as server_mod
from repro.incremental import DynamicGraph, UpdateBatch
from repro.mst.kruskal import kruskal
from repro.serve import AmstDaemon, DaemonConfig
from repro.serve.client import ServeClientError
from repro.serve.jobs import Job

from .conftest import edge_payload, graph_of

pytestmark = pytest.mark.serve

INSERTS = [[0, 55, 0.125], [7, 7, 1.0], [12, 80, 0.25]]
DELETES = [0, 3, 11]


def oracle_after(payload: dict, *batches: UpdateBatch):
    """Kruskal over the graph after applying ``batches`` locally."""
    dyn = DynamicGraph(graph_of(payload))
    for batch in batches:
        dyn.apply(batch)
    return kruskal(dyn.to_csr())


def forest_digest(result) -> str:
    return hashlib.blake2b(
        result.edge_ids.tobytes() + b"|"
        + repr(result.total_weight).encode(),
        digest_size=16).hexdigest()


class TestUpdateJob:
    def test_update_matches_oracle_and_republishes(
            self, make_daemon, client_for):
        daemon = make_daemon()
        client = client_for(daemon)
        payload = edge_payload(3)
        fp = client.publish(edges=payload)["fingerprint"]

        job = client.submit(kind="update", graph=fp,
                            params={"inserts": INSERTS,
                                    "deletes": DELETES})
        assert client.wait(job["id"])["state"] == "done"
        body = client.result(job["id"])["result"]

        expected = oracle_after(
            payload, UpdateBatch.of(inserts=[tuple(t) for t in INSERTS],
                                    deletes=DELETES))
        assert body["base"] == fp
        assert body["fingerprint"] != fp
        assert body["graph"]["reused"] is False
        assert body["forest"]["num_edges"] == int(expected.edge_ids.size)
        assert body["forest"]["weight_repr"] == repr(
            expected.total_weight)
        assert body["forest"]["digest"] == forest_digest(expected)
        assert body["stats"]["inserts"] == len(INSERTS)
        assert body["stats"]["deletes"] == len(DELETES)
        # both graphs now live in the registry
        fps = {g["fingerprint"] for g in client.graphs()}
        assert {fp, body["fingerprint"]} <= fps

    def test_chained_updates_follow_the_fingerprint(
            self, make_daemon, client_for):
        daemon = make_daemon()
        client = client_for(daemon)
        payload = edge_payload(4)
        fp = client.publish(edges=payload)["fingerprint"]

        first = UpdateBatch.of(inserts=[(1, 2, 0.01)], deletes=[5])
        second = UpdateBatch.of(inserts=[(0, 9, 0.02)], deletes=[1])

        job1 = client.submit(kind="update", graph=fp,
                             params=first.to_json())
        client.wait(job1["id"])
        fp1 = client.result(job1["id"])["result"]["fingerprint"]

        job2 = client.submit(kind="update", graph=fp1,
                             params=second.to_json())
        assert client.wait(job2["id"])["state"] == "done"
        body = client.result(job2["id"])["result"]
        assert body["base"] == fp1

        expected = oracle_after(payload, first, second)
        assert body["forest"]["digest"] == forest_digest(expected)

    def test_malformed_batches_rejected_at_admission(
            self, make_daemon, client_for):
        daemon = make_daemon()
        client = client_for(daemon)
        fp = client.publish(edges=edge_payload(5))["fingerprint"]

        for params in (
            {},  # empty batch
            {"inserts": [[0, 1]]},  # not a triple
            {"inserts": [[0, 1, float("nan")]]},
            {"deletes": [1, 1]},  # duplicate
            {"deletes": [-1]},
            {"inserts": [[0, 1, 1.0]], "fallback_fraction": 0.0},
        ):
            with pytest.raises(ServeClientError) as info:
                client.submit(kind="update", graph=fp, params=params)
            assert info.value.code == "bad_request", params

        # an eid past the live edge count passes admission (shape-valid)
        # but fails execution with a structured error, not a crash
        job = client.submit(kind="update", graph=fp,
                            params={"deletes": [10**6]})
        view = client.wait(job["id"])
        assert view["state"] == "failed"
        assert view["error"]["code"] == "bad_request"

    def test_runcache_gauges_on_metrics(self, make_daemon, client_for):
        daemon = make_daemon()
        client = client_for(daemon)
        fp = client.publish(edges=edge_payload(6))["fingerprint"]
        job = client.submit(kind="update", graph=fp,
                            params={"inserts": [[0, 1, 0.5]]})
        client.wait(job["id"])
        text = client.metrics_text()
        assert "amst_serve_runcache_delta_misses" in text
        assert "amst_serve_runcache_delta_memory_hits" in text


class TestSingleFlight:
    def test_identical_runs_coalesce_onto_one_compute(self, monkeypatch):
        """Two threads, one key: the follower waits on the leader's
        event and serves the leader's cached result — exactly one
        compute, one coalesce count."""
        daemon = AmstDaemon(DaemonConfig(port=0))  # never started
        graph = graph_of(edge_payload(7))
        params = {"parallelism": 4, "cache_vertices": 512}

        calls = []
        inside = threading.Event()
        release = threading.Event()
        real = server_mod.Amst.run

        def gated(amst, graph, **kwargs):
            calls.append(1)
            inside.set()
            assert release.wait(timeout=30.0)
            return real(amst, graph, **kwargs)

        monkeypatch.setattr(server_mod.Amst, "run", gated)

        def job(jid, seq):
            return Job(id=jid, kind="run", client="c", priority=0,
                       graph="fp-test", params=dict(params), seq=seq)

        outcomes = {}

        def run(name, j):
            outcomes[name] = daemon._execute_run(j, graph)

        a = threading.Thread(target=run, args=("a", job("j1", 0)))
        b = threading.Thread(target=run, args=("b", job("j2", 1)))
        a.start()
        assert inside.wait(timeout=30.0)  # A owns the compute ...
        b.start()
        time.sleep(0.3)  # ... while B queues on the in-flight key
        release.set()
        a.join(timeout=30.0)
        b.join(timeout=30.0)

        assert len(calls) == 1
        body_a, hit_a = outcomes["a"]
        body_b, hit_b = outcomes["b"]
        payload_a, payload_b = json.loads(body_a), json.loads(body_b)
        assert hit_a is False
        assert hit_b is True
        assert payload_a["forest"]["digest"] == \
            payload_b["forest"]["digest"]
        counters = daemon.metrics.counters
        assert counters.get("serve.singleflight.coalesced") == 1

    def test_leader_crash_hands_off_leadership(self, monkeypatch):
        """If the leader's compute dies, a waiter loops back, takes
        leadership, and completes the job itself."""
        daemon = AmstDaemon(DaemonConfig(port=0))
        graph = graph_of(edge_payload(8))

        state = {"crashed": False}
        inside = threading.Event()
        real = server_mod.Amst.run

        def flaky(amst, graph, **kwargs):
            if not state["crashed"]:
                state["crashed"] = True
                inside.set()
                time.sleep(0.2)  # let the follower queue up
                raise RuntimeError("injected leader crash")
            return real(amst, graph, **kwargs)

        monkeypatch.setattr(server_mod.Amst, "run", flaky)

        def job(jid, seq):
            return Job(id=jid, kind="run", client="c", priority=0,
                       graph="fp-crash", params={"parallelism": 4},
                       seq=seq)

        outcomes = {}
        errors = {}

        def run(name, j):
            try:
                outcomes[name] = daemon._execute_run(j, graph)
            except Exception as exc:  # the leader's crash propagates
                errors[name] = exc

        a = threading.Thread(target=run, args=("a", job("j1", 0)))
        b = threading.Thread(target=run, args=("b", job("j2", 1)))
        a.start()
        assert inside.wait(timeout=30.0)
        b.start()
        a.join(timeout=30.0)
        b.join(timeout=60.0)

        assert isinstance(errors.get("a"), RuntimeError)
        body_b, hit_b = outcomes["b"]
        payload_b = json.loads(body_b)
        assert hit_b is False  # B recomputed as the new leader
        assert payload_b["forest"]["edge_ids"]

    def test_singleflight_primitive(self):
        sf = server_mod._SingleFlight()
        assert sf.leader("k") is None  # first caller leads
        event = sf.leader("k")
        assert event is not None and not event.is_set()
        sf.done("k")
        assert event.is_set()
        assert sf.leader("k") is None  # key retired, next caller leads
        sf.done("k")
