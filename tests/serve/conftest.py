"""Shared harness for the daemon suites.

Every daemon boots in-process on an ephemeral port (``port=0``) and is
shut down in fixture teardown, so a failing test can't leak a listener
or worker threads into the next one.  ``serial_run`` reproduces exactly
the payload the daemon's ``/result`` route builds — byte-identity
between the two is the core concurrency claim.
"""

import hashlib

import numpy as np
import pytest

from repro.core import Amst, AmstConfig
from repro.graph.builders import from_edges
from repro.serve import AmstDaemon, DaemonConfig, ServeClient


def edge_payload(seed: int, num_vertices: int = 96,
                 num_edges: int = 320) -> dict:
    """A deterministic inline-edge publish body (JSON-ready lists)."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_vertices, size=num_edges)
    v = rng.integers(0, num_vertices, size=num_edges)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.random(u.size)
    return {
        "num_vertices": num_vertices,
        "u": [int(x) for x in u],
        "v": [int(x) for x in v],
        "w": [float(x) for x in w],
    }


def graph_of(payload: dict):
    """The CSRGraph the daemon builds from ``payload`` (same code path)."""
    return from_edges(
        payload["num_vertices"],
        np.asarray(payload["u"], dtype=np.int64),
        np.asarray(payload["v"], dtype=np.int64),
        np.asarray(payload["w"], dtype=np.float64))


def job_config(params: dict) -> AmstConfig:
    """Mirror of the daemon's ``_job_config`` defaulting."""
    return AmstConfig.full(
        int(params.get("parallelism", 16)),
        cache_vertices=int(params.get("cache_vertices", 1 << 19)))


def serial_run(graph, params: dict) -> dict:
    """What ``amst run`` computes serially, in the daemon's wire shape."""
    out = Amst(job_config(params)).run(graph)
    eids = out.result.edge_ids
    digest = hashlib.blake2b(
        eids.tobytes() + b"|" + repr(out.result.total_weight).encode(),
        digest_size=16).hexdigest()
    return {
        "edge_ids": [int(x) for x in eids],
        "weight_repr": repr(out.result.total_weight),
        "total_cycles": float(out.report.total_cycles),
        "digest": digest,
    }


def assert_run_matches_serial(result_body: dict, expected: dict) -> None:
    """Byte-identity of one ``/result`` body against a serial run."""
    forest = result_body["result"]["forest"]
    report = result_body["result"]["report"]
    assert forest["edge_ids"] == expected["edge_ids"]
    assert forest["weight_repr"] == expected["weight_repr"]
    assert forest["digest"] == expected["digest"]
    assert report["total_cycles"] == expected["total_cycles"]


@pytest.fixture
def make_daemon():
    """Factory for in-process daemons; teardown shuts every one down."""
    daemons: list[AmstDaemon] = []

    def _make(**overrides) -> AmstDaemon:
        daemon = AmstDaemon(DaemonConfig(port=0, **overrides)).start()
        daemons.append(daemon)
        return daemon

    yield _make
    for daemon in daemons:
        daemon.shutdown(drain=False, timeout=10.0)


@pytest.fixture
def client_for():
    def _client(daemon: AmstDaemon, timeout: float = 60.0) -> ServeClient:
        return ServeClient(daemon.url, timeout=timeout)

    return _client
