"""The daemon's job path in-process, without a socket (tier-1).

Every other suite that runs a job boots a listener and is ``serve``
marked; this module drives an :class:`AmstDaemon` that is never
started — jobs go through ``submit_job`` and ``queue.wait`` — so the
default test run covers the run cache's entries, the memory a finished
job keeps, the ``/result`` body and the queue's accounting.
"""

import gc
import json
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from repro.core.accelerator import AmstOutput
from repro.core.events import EventLog
from repro.core.state import SimState
from repro.graph.preprocess import PreprocessResult
from repro.graph.shm import owned_segments
from repro.serve import AmstDaemon, DaemonConfig, JobQueue, ServeError

from .conftest import assert_run_matches_serial, serial_run

RUN = {"parallelism": 4, "cache_vertices": 512}
UPDATE = {"inserts": [[0, 5, 0.125], [3, 9, 0.5]], "deletes": [0, 3]}


@pytest.fixture
def daemon():
    before = set(owned_segments())
    d = AmstDaemon(DaemonConfig())  # never started: no listener
    d.fp = d.publish_graph(
        {"dataset": "RC", "seed": 0, "scale": 0.25})["fingerprint"]
    assert set(d.registry.active_segments()) - before
    yield d
    summary = d.shutdown(drain=True, timeout=60.0)
    # no shm segment the session published (graphs, updated graphs)
    # outlives it
    assert summary["shm_segments"] == []
    assert set(owned_segments()) <= before


def finish(daemon, kind: str, params: dict, graph: str | None = None):
    job = daemon.submit_job({"kind": kind, "graph": graph or daemon.fp,
                             "params": params})
    job = daemon.queue.wait(job.id, timeout=120.0)
    assert job.state == "done", job.error
    return job


def retained_bytes_per_job(jobs) -> float:
    """Traced memory still held after running ``jobs`` (callables that
    each finish one job), per job: what the daemon keeps of it."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for job in jobs:
            job()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    return (after - before) / len(jobs)


class TestRunCacheEntries:
    def test_finished_jobs_keep_only_the_served_bytes(self, daemon):
        finish(daemon, "run", RUN)  # miss
        finish(daemon, "run", RUN)  # hit: first-use allocations done
        hit = retained_bytes_per_job(
            [lambda: finish(daemon, "run", RUN)] * 30)
        miss = retained_bytes_per_job([
            lambda i=i: finish(daemon, "run",
                               {"parallelism": 4, "cache_vertices": 600 + i})
            for i in range(4)])
        assert hit < 8 * 1024, f"{hit / 1024:.1f} KB retained per hit job"
        assert miss < 100 * 1024, \
            f"{miss / 1024:.1f} KB retained per miss job"

    def test_cache_holds_no_simulator_run(self, daemon):
        finish(daemon, "run", RUN)
        finish(daemon, "run", {"parallelism": 8})
        finish(daemon, "update", UPDATE)
        # the memory tier itself: RunCache has no public value iterator
        values = list(daemon.cache._memory.values())
        assert len(values) >= 2
        simulator = (AmstOutput, SimState, PreprocessResult, EventLog)
        assert not [v for v in values if isinstance(v, simulator)]

    def test_verify_job_caches_no_simulator_run(self, daemon):
        finish(daemon, "verify", {})
        simulator = (AmstOutput, SimState, PreprocessResult, EventLog)
        values = [x for v in daemon.cache._memory.values()
                  for x in (v if isinstance(v, tuple) else (v,))]
        assert len(values) >= 10  # references, configurations, verdict
        assert not [v for v in values if isinstance(v, simulator)]

    def test_verify_cache_hit_is_this_jobs_own(self, daemon):
        cf = daemon.publish_graph(
            {"dataset": "CF", "seed": 1, "scale": 0.05})["fingerprint"]
        first = finish(daemon, "verify", {}, graph=cf)
        second = finish(daemon, "verify", {}, graph=cf)
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert second.result == first.result

    def test_hit_shares_the_miss_bytes(self, daemon):
        miss = finish(daemon, "run", RUN)
        hit = finish(daemon, "run", RUN)
        assert (miss.cache_hit, hit.cache_hit) == (False, True)
        assert hit.result is miss.result
        graph = daemon.registry.get(daemon.fp).graph
        expected = serial_run(graph, RUN)
        for job in (miss, hit):
            assert_run_matches_serial(json.loads(job.result_body()),
                                      expected)


class TestResultBody:
    def test_every_kind_matches_json_dumps_of_its_result(self, daemon):
        cf = daemon.publish_graph(
            {"dataset": "CF", "seed": 1, "scale": 0.05})["fingerprint"]
        jobs = [
            finish(daemon, "run", RUN),
            finish(daemon, "run", RUN),
            finish(daemon, "update", UPDATE),
            finish(daemon, "verify", {}, graph=cf),
            finish(daemon, "sweep", {"name": "cache",
                                     "cache_vertices": 64}, graph=cf),
        ]
        assert [j.cache_hit for j in jobs[:2]] == [False, True]
        for job in jobs:
            body = job.result_body()
            assert isinstance(job.result, bytes)
            assert body == json.dumps({
                "id": job.id,
                "cache_hit": job.cache_hit,
                "result": json.loads(job.result),
            }).encode(), job.kind


class TestQueueAccounting:
    def test_depth_limit_holds_after_many_finished_jobs(self):
        gate = threading.Event()

        def execute(job):
            if job.params.get("block"):
                assert gate.wait(timeout=30.0)
            return b"{}", False

        queue = JobQueue(execute, workers=2, max_depth=4)
        try:
            for i in range(300):
                job = queue.submit(kind="run", client=f"c{i % 3}",
                                   priority=0, graph="g", params={})
                assert queue.wait(job.id, timeout=30.0).state == "done"
            live = [queue.submit(kind="run", client=f"c{i}", priority=0,
                                 graph="g", params={"block": True})
                    for i in range(4)]
            with pytest.raises(ServeError) as exc:
                queue.submit(kind="run", client="c9", priority=0,
                             graph="g", params={})
            assert exc.value.code == "queue_full"
            depth = queue.depth()
            recount = Counter(j["state"] for j in queue.list())
            assert depth == {**{s: recount[s] for s in (
                "queued", "running", "done", "failed", "cancelled")},
                "total": 304}
            assert depth["done"] == 300
            assert depth["queued"] + depth["running"] == 4
        finally:
            gate.set()
            final = queue.shutdown(drain=True, timeout=30.0)
        assert all(queue.wait(j.id, timeout=0).terminal for j in live)
        assert final["done"] == 304

    def test_counts_balance_under_contention(self):
        """More workers and submitters than cores, a short switch
        interval: a lost count update would unbalance the snapshot."""
        queue = JobQueue(lambda job: (b"{}", False), workers=4,
                         max_depth=8, per_client_limit=2)
        admitted, refused = Counter(), Counter()

        def submit(name):
            for _ in range(150):
                try:
                    queue.submit(kind="run", client=name, priority=0,
                                 graph="g", params={})
                    admitted[name] += 1
                except ServeError as exc:
                    assert exc.code == "queue_full"
                    refused[name] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit, args=(f"c{i}",))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            final = queue.shutdown(drain=True, timeout=60.0)
        total = sum(admitted.values())
        assert total + sum(refused.values()) == 600
        recount = Counter(j["state"] for j in queue.list())
        assert final == {**{s: recount[s] for s in (
            "queued", "running", "done", "failed", "cancelled")},
            "total": total}
        assert final["done"] == total
