"""Golden-trace regression layer.

A golden record is the full observable behaviour of one simulator run on
one canonical graph: the forest (edge ids, weight, components), the
modelled performance totals, and the *complete* per-iteration event
ledger.  Records are serialized with ``json.dumps(sort_keys=True)`` so a
byte-level comparison against ``tests/golden/*.json`` detects any
behavioural drift — an event counter that moved, a cycle model change,
a different forest — while ``amst verify --update-golden`` re-blesses
them intentionally (review the diff in the PR!).

Everything a record contains is deterministic: graphs come from seeded
generators, cycles are pure arithmetic over integer counts, and floats
are serialized via Python's shortest-repr.  That makes the layer also a
*determinism* check: ``check_golden(..., jobs=N)`` recomputes records in
a process pool via :mod:`repro.bench.executor` and must match the
serial bytes exactly (tested in ``tests/verify/test_golden.py``).
"""

from __future__ import annotations

import difflib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..bench.executor import TaskSpec, execute
from ..core import Amst, AmstConfig
from ..graph import from_edges, paper_example, rmat, road_lattice
from ..graph.csr import CSRGraph

__all__ = [
    "GOLDEN_CASES",
    "GoldenCase",
    "GoldenDiff",
    "check_golden",
    "compute_golden_record",
    "compute_golden_records",
    "golden_dir",
    "serialize_record",
    "update_golden",
]


# ----------------------------------------------------------------------
# The canonical suite.  Builders are module-level functions so golden
# tasks stay picklable for the --jobs path.
# ----------------------------------------------------------------------
def _graph_paper() -> CSRGraph:
    return paper_example()


def _graph_rmat() -> CSRGraph:
    return rmat(6, 5, rng=1)


def _graph_road() -> CSRGraph:
    return road_lattice(8, 8, rng=2)


def _graph_dup_forest() -> CSRGraph:
    """Handcrafted adversarial case: duplicate weights, parallel edges,
    a self-loop, two components and two isolated vertices."""
    u = np.array([0, 0, 1, 2, 0, 4, 5, 6, 4, 3], dtype=np.int64)
    v = np.array([1, 2, 2, 3, 1, 5, 6, 4, 6, 3], dtype=np.int64)
    w = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 3.0, 3.0, 3.0, 5.0])
    return from_edges(10, u, v, w, dedup=False)


@dataclass(frozen=True)
class GoldenCase:
    """One (graph, configuration) point of the golden suite."""

    name: str
    graph_fn: object  # module-level () -> CSRGraph
    config: AmstConfig


GOLDEN_CASES = {
    c.name: c
    for c in (
        GoldenCase("paper-full", _graph_paper,
                   AmstConfig.full(4, cache_vertices=16)),
        GoldenCase("rmat-full", _graph_rmat,
                   AmstConfig.full(8, cache_vertices=64)),
        # the LRU cache is the one whose hits depend on lookup order
        GoldenCase("rmat-lru", _graph_rmat,
                   AmstConfig.full(8, cache_vertices=64).with_(
                       lru_cache=True)),
        GoldenCase("road-full", _graph_road,
                   AmstConfig.full(4, cache_vertices=32)),
        GoldenCase("road-baseline", _graph_road,
                   AmstConfig.baseline(cache_vertices=32)),
        GoldenCase("dup-forest-full", _graph_dup_forest,
                   AmstConfig.full(4, cache_vertices=16)),
        GoldenCase("dup-forest-nohdc", _graph_dup_forest,
                   AmstConfig(parallelism=2, cache_vertices=16,
                              use_hdc=False, hash_cache=False)),
    )
}


def _config_record(cfg: AmstConfig) -> dict:
    return {
        "parallelism": cfg.parallelism,
        "cache_vertices": cfg.cache_vertices,
        "use_hdc": cfg.use_hdc,
        "hash_cache": cfg.hash_cache,
        "lru_cache": cfg.lru_cache,
        "skip_intra_edges": cfg.skip_intra_edges,
        "skip_intra_vertices": cfg.skip_intra_vertices,
        "sort_edges_by_weight": cfg.sort_edges_by_weight,
        "use_sorting_network": cfg.use_sorting_network,
        "merge_rm_am": cfg.merge_rm_am,
        "overlap_fm_cm": cfg.overlap_fm_cm,
    }


def compute_golden_record(name: str, graph=None) -> dict:
    """Run one golden case (with self-check armed) and snapshot it.

    ``graph`` optionally supplies the case's graph — either directly or
    as a :class:`~repro.graph.shm.SharedGraphHandle` published by the
    parent of a ``--jobs N`` recomputation; by default it is rebuilt
    from the case's seeded generator (identical bytes either way).
    """
    from ..graph.shm import resolve_graph

    case = GOLDEN_CASES[name]
    graph = case.graph_fn() if graph is None else resolve_graph(graph)
    out = Amst(case.config.with_(self_check=True)).run(graph)
    res, rep = out.result, out.report
    return {
        "name": name,
        "config": _config_record(case.config),
        "graph": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "forest": {
            "edge_ids": [int(e) for e in res.edge_ids],
            "total_weight": float(res.total_weight),
            "num_components": int(res.num_components),
            "iterations": int(res.iterations),
        },
        "report": {
            "total_cycles": float(rep.total_cycles),
            "overlap_cycles_hidden": float(rep.overlap_cycles_hidden),
            "dram_blocks": int(rep.dram_blocks),
            "dram_random_blocks": int(rep.dram_random_blocks),
            "compute_work": float(rep.compute_work),
            "module_cycles": {
                k: float(v) for k, v in sorted(rep.module_cycles.items())
            },
        },
        "iterations": [
            {
                "iteration": ev.iteration,
                "counts": {k: int(v) for k, v in sorted(ev.counts.items())},
                "parent_cache_utilization": float(
                    ev.parent_cache_utilization),
                "minedge_cache_utilization": float(
                    ev.minedge_cache_utilization),
            }
            for ev in out.log.iterations
        ],
    }


def _golden_task(name: str, graph=None) -> tuple:
    """Picklable executor task body (single-element tuple for run_task)."""
    return (compute_golden_record(name, graph=graph),)


def compute_golden_records(
    names: list[str] | None = None,
    *,
    jobs: int = 1,
) -> dict[str, dict]:
    """Compute records, optionally fanning across a process pool.

    On the parallel path each case's graph is built once in the parent
    and published through the shared-memory store, so workers attach
    the CSR arrays instead of regenerating (or unpickling) them; the
    records stay byte-identical to serial recomputation.
    """
    from ..graph.shm import GraphStore

    if names is None:
        names = list(GOLDEN_CASES)
    with GraphStore() as store:
        tasks = []
        for n in names:
            kwargs: dict = {"name": n}
            if jobs > 1 and len(names) > 1:
                kwargs["graph"] = store.publish_graph(
                    GOLDEN_CASES[n].graph_fn())
            tasks.append(
                TaskSpec(key=f"golden.{n}", fn=_golden_task, kwargs=kwargs))
        results = execute(tasks, jobs=jobs)
    return {n: group[0] for n, group in zip(names, results)}


def serialize_record(record: dict) -> str:
    """Byte-stable JSON: sorted keys, shortest-repr floats, 2-space."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def golden_dir(override: str | Path | None = None) -> Path:
    """Resolve the golden directory: arg > $AMST_GOLDEN_DIR > repo tree."""
    if override is not None:
        return Path(override)
    env = os.environ.get("AMST_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


@dataclass(frozen=True)
class GoldenDiff:
    """One golden case that disagrees with its blessed snapshot."""

    name: str
    reason: str  # "missing" | "changed"
    detail: str

    def __str__(self) -> str:
        return f"[{self.name}] {self.reason}:\n{self.detail}"


def check_golden(
    names: list[str] | None = None,
    *,
    directory: str | Path | None = None,
    jobs: int = 1,
) -> list[GoldenDiff]:
    """Recompute the suite and diff against blessed files."""
    directory = golden_dir(directory)
    records = compute_golden_records(names, jobs=jobs)
    diffs: list[GoldenDiff] = []
    for name, record in records.items():
        path = directory / f"{name}.json"
        got = serialize_record(record)
        if not path.exists():
            diffs.append(GoldenDiff(
                name, "missing",
                f"{path} does not exist; run `amst verify --update-golden`",
            ))
            continue
        want = path.read_text()
        if got != want:
            delta = "".join(difflib.unified_diff(
                want.splitlines(keepends=True),
                got.splitlines(keepends=True),
                fromfile=f"blessed/{name}.json",
                tofile=f"current/{name}.json",
                n=2,
            ))
            diffs.append(GoldenDiff(name, "changed", delta))
    return diffs


def update_golden(
    names: list[str] | None = None,
    *,
    directory: str | Path | None = None,
    jobs: int = 1,
) -> list[Path]:
    """(Re)write blessed snapshots; returns the files written."""
    directory = golden_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = compute_golden_records(names, jobs=jobs)
    written = []
    for name, record in records.items():
        path = directory / f"{name}.json"
        path.write_text(serialize_record(record))
        written.append(path)
    return written
