"""Differential oracle harness: simulator vs. every reference algorithm.

One call to :func:`run_oracle` runs the event-driven simulator
(``repro.core``) under one or more configurations and every executed
reference MST implementation (Borůvka, Kruskal, Prim, Filter-Kruskal)
on the *same* graph, then cross-checks:

* **canonical edge set** — under the repo-wide ``(weight, edge-id)``
  tie-break every implementation computes *the* unique canonical MST
  (see DESIGN.md "Canonical MST tie-break"), so forests are compared as
  exact integer edge-id sets, not as floating-point weight sums;
* **exact forest weight** — recomputed per implementation with
  :func:`exact_forest_weight` (``math.fsum`` over ascending edge ids,
  order-independent), and each implementation's *claimed* running-sum
  weight is checked against it;
* **component counts** — total, and per-iteration against the
  instrumented reference Borůvka for simulator entries (the simulator
  is iteration-for-iteration the same algorithm);
* **first-principles certificate** — the simulator forest is certified
  as the canonical minimum forest via the strict cycle property
  (``repro.mst.certificate``: union-find hooking labels the trees, a
  BFS roots them, path maxima come from one lockstep climb), which
  calls no MST algorithm and is independent of every oracle.

Disagreements are collected into a structured
:class:`OracleReport` whose :meth:`~OracleReport.format` prints a
per-implementation diff (edges only in one forest, with endpoints and
weights) — the report ``amst verify`` prints before exiting non-zero.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..core import Amst, AmstConfig
from ..graph.csr import CSRGraph
from ..obs.context import current_telemetry
from ..mst import boruvka, filter_kruskal, kruskal, prim
from ..mst.result import MSTResult

__all__ = [
    "REFERENCES",
    "ORACLE_CONFIGS",
    "OracleEntry",
    "OracleMismatch",
    "OracleReport",
    "exact_forest_weight",
    "run_oracle",
]

#: every executed reference implementation, keyed by display name
REFERENCES = {
    "kruskal": kruskal,
    "boruvka": boruvka,
    "prim": prim,
    "filter_kruskal": filter_kruskal,
}

#: default simulator configurations the harness diffs (HDV cache on/off,
#: intra-edge/vertex pruning on/off, all three cache organizations)
ORACLE_CONFIGS = {
    "full": AmstConfig.full(4, cache_vertices=16),
    "no-hdc": AmstConfig(
        parallelism=2, cache_vertices=16, use_hdc=False, hash_cache=False
    ),
    "no-pruning": AmstConfig.full(4, cache_vertices=16).with_(
        skip_intra_edges=False,
        skip_intra_vertices=False,
        sort_edges_by_weight=False,
    ),
    "direct-cache": AmstConfig.full(4, cache_vertices=16).with_(
        hash_cache=False
    ),
    "lru-cache": AmstConfig.full(4, cache_vertices=16).with_(
        hash_cache=False, lru_cache=True
    ),
}

_MAX_DIFF_EDGES = 8  # edge-level diff lines shown per direction


def exact_forest_weight(graph: CSRGraph, edge_ids: np.ndarray) -> float:
    """Order-independent exact forest weight.

    ``math.fsum`` over *ascending* edge ids: correctly-rounded and
    independent of the order an algorithm discovered the edges in, so
    two identical edge sets always produce bit-identical weights.
    """
    _, _, w = graph.edge_endpoints()
    return _fsum_ascending(w, edge_ids)


def _fsum_ascending(w: np.ndarray, edge_ids: np.ndarray) -> float:
    """:func:`exact_forest_weight` over an already built weight array."""
    eids = np.sort(np.asarray(edge_ids, dtype=np.int64))
    return math.fsum(w[eids].tolist())


@dataclass(frozen=True)
class OracleEntry:
    """One implementation's forest, normalized for diffing."""

    name: str
    kind: str  # "reference" | "simulator"
    edge_ids: np.ndarray  # sorted ascending (MSTResult canonical form)
    exact_weight: float  # recomputed via exact_forest_weight
    claimed_weight: float  # the implementation's own running sum
    num_components: int
    iterations: int


@dataclass(frozen=True)
class OracleMismatch:
    """One disagreement between an implementation and the canonical MST."""

    implementation: str
    kind: str  # edge-set | forest-weight | component-count | ...
    detail: str

    def __str__(self) -> str:
        return f"[{self.implementation}] {self.kind}: {self.detail}"


@dataclass
class OracleReport:
    """Structured outcome of one differential run."""

    num_vertices: int
    num_edges: int
    canonical: str
    entries: dict[str, OracleEntry] = field(default_factory=dict)
    mismatches: list[OracleMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        """Human-readable report with per-implementation diffs."""
        base = self.entries[self.canonical]
        lines = [
            f"oracle: n={self.num_vertices} m={self.num_edges} "
            f"canonical={self.canonical} "
            f"(weight={base.exact_weight!r}, edges={base.edge_ids.size}, "
            f"components={base.num_components})"
        ]
        bad = {m.implementation for m in self.mismatches}
        for name, e in self.entries.items():
            status = "MISMATCH" if name in bad else "ok"
            lines.append(
                f"  [{status:>8s}] {name:<22s} weight={e.exact_weight!r} "
                f"edges={e.edge_ids.size} components={e.num_components}"
            )
        for m in self.mismatches:
            lines.append(f"  !! {m}")
        return "\n".join(lines)

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            raise AssertionError(self.format())


def _edge_diff(graph: CSRGraph, only: np.ndarray) -> str:
    u, v, w = graph.edge_endpoints()
    parts = [
        f"eid {int(e)} ({int(u[e])}-{int(v[e])}, w={float(w[e])!r})"
        for e in only[:_MAX_DIFF_EDGES]
    ]
    if only.size > _MAX_DIFF_EDGES:
        parts.append(f"... {only.size - _MAX_DIFF_EDGES} more")
    return ", ".join(parts)


def _compare(
    graph: CSRGraph,
    base: OracleEntry,
    entry: OracleEntry,
    out: list[OracleMismatch],
) -> None:
    """Diff ``entry`` against the canonical entry, appending mismatches."""
    if not np.array_equal(entry.edge_ids, base.edge_ids):
        extra = np.setdiff1d(entry.edge_ids, base.edge_ids)
        missing = np.setdiff1d(base.edge_ids, entry.edge_ids)
        detail = (
            f"{missing.size} edge(s) only in {base.name}, "
            f"{extra.size} only in {entry.name}"
        )
        if missing.size:
            detail += f"; only in {base.name}: {_edge_diff(graph, missing)}"
        if extra.size:
            detail += f"; only in {entry.name}: {_edge_diff(graph, extra)}"
        out.append(OracleMismatch(entry.name, "edge-set", detail))
    if entry.exact_weight != base.exact_weight:
        out.append(OracleMismatch(
            entry.name, "forest-weight",
            f"exact weight {entry.exact_weight!r} != canonical "
            f"{base.exact_weight!r}",
        ))
    if entry.num_components != base.num_components:
        out.append(OracleMismatch(
            entry.name, "component-count",
            f"{entry.num_components} components != canonical "
            f"{base.num_components}",
        ))
    if not np.isclose(entry.claimed_weight, entry.exact_weight, rtol=1e-9,
                      atol=1e-12):
        out.append(OracleMismatch(
            entry.name, "claimed-weight",
            f"claimed running-sum weight {entry.claimed_weight!r} far "
            f"from exact recomputation {entry.exact_weight!r}",
        ))


def _entry(
    name: str, kind: str, result: MSTResult, weights: dict, w: np.ndarray
) -> OracleEntry:
    """One normalized entry; ``weights`` memoizes the exact weight per
    distinct forest (most entries of one graph share the canonical one)."""
    forest = result.edge_ids.tobytes()  # MSTResult already sorts ascending
    if forest not in weights:
        weights[forest] = _fsum_ascending(w, result.edge_ids)
    return OracleEntry(
        name=name,
        kind=kind,
        edge_ids=result.edge_ids,
        exact_weight=weights[forest],
        claimed_weight=float(result.total_weight),
        num_components=int(result.num_components),
        iterations=int(result.iterations),
    )


def _sim_components_per_iteration(out) -> list[int]:
    """Component count *before* each completed simulator iteration."""
    n = out.preprocess.graph.num_vertices
    comps, counts = n, []
    for ev in out.log.iterations[: out.result.iterations]:
        counts.append(comps)
        comps -= ev.get("rape.appends")
    return counts


def _oracle_ref_task(algo, graph) -> tuple:
    """Worker body: one reference MST over the shared graph."""
    from ..graph.shm import resolve_graph

    return (algo(resolve_graph(graph)),)


def _oracle_sim_task(cfg: AmstConfig, graph, certify: bool) -> tuple:
    """Worker body: one simulator run plus its derived check inputs.

    Returns a small ``(result, sim_comps, cert_error)`` payload instead
    of the whole :class:`AmstOutput`, so only the forest travels back
    through the pool.
    """
    from ..bench.runcache import cached_certificate
    from ..graph.shm import resolve_graph

    g = resolve_graph(graph)
    out = Amst(cfg).run(g)
    cert_error = (cached_certificate(g, out.result.edge_ids)
                  if certify else None)
    return ((out.result, _sim_components_per_iteration(out), cert_error),)


def _serial_runs(graph, references, configs, certify, cache):
    """Compute every oracle input in-process (optionally cached).

    Simulator configurations that imply the same preprocessing — same
    reordering strategy and SEW setting — share one preprocessing pass
    (the default five configs need three passes, not five); with a
    :class:`~repro.bench.runcache.RunCache` the passes, the reference
    forests, whole simulator runs and certification verdicts are
    memoized across calls under content-addressed keys.
    """
    from ..bench.runcache import (
        cached_certificate,
        cached_preprocess,
        cached_reference,
        cached_run,
        graph_fingerprint,
        preprocess_options,
    )

    fp = graph_fingerprint(graph) if cache is not None else None
    ref_results = {
        name: cached_reference(graph, name, algo, cache=cache, graph_fp=fp)
        for name, algo in references.items()
    }
    if "boruvka" in ref_results:
        ref_boruvka = ref_results["boruvka"]
    else:
        ref_boruvka = cached_reference(
            graph, "boruvka", boruvka, cache=cache, graph_fp=fp)

    pre_memo: dict = {}

    def _pre(opts):
        if opts not in pre_memo:
            pre_memo[opts] = cached_preprocess(
                graph, reorder=opts[0], sort_edges_by_weight=opts[1],
                cache=cache, graph_fp=fp,
            )
        return pre_memo[opts]

    sim_payloads = {}
    for label, cfg in configs.items():
        out = cached_run(graph, cfg, cache=cache, graph_fp=fp,
                         preprocessed=_pre(preprocess_options(cfg)))
        cert_error = (cached_certificate(graph, out.result.edge_ids,
                                         cache=cache, graph_fp=fp)
                      if certify else None)
        sim_payloads[label] = (
            out.result, _sim_components_per_iteration(out), cert_error)
    return ref_results, ref_boruvka, sim_payloads


def _parallel_runs(graph, references, configs, certify, jobs):
    """Fan every reference and simulator run across the process pool.

    The graph is published once through the shared-memory store; every
    worker attaches the same physical CSR arrays (or unpickles the
    graph on the fallback path).  Collection order is deterministic, so
    the assembled report is byte-identical to the serial one.
    """
    from ..bench.executor import TaskSpec, execute
    from ..graph.shm import GraphStore

    with GraphStore() as store:
        shared = store.publish_graph(graph)
        tasks = [
            TaskSpec(key=f"oracle.ref.{name}", fn=_oracle_ref_task,
                     kwargs={"algo": algo, "graph": shared})
            for name, algo in references.items()
        ]
        need_boruvka = "boruvka" not in references
        if need_boruvka:
            tasks.append(TaskSpec(
                key="oracle.ref.boruvka", fn=_oracle_ref_task,
                kwargs={"algo": boruvka, "graph": shared},
            ))
        tasks.extend(
            TaskSpec(key=f"oracle.sim.{label}", fn=_oracle_sim_task,
                     kwargs={"cfg": cfg, "graph": shared,
                             "certify": certify})
            for label, cfg in configs.items()
        )
        groups = execute(tasks, jobs=jobs)

    it = iter(groups)
    ref_results = {name: next(it)[0] for name in references}
    ref_boruvka = next(it)[0] if need_boruvka else ref_results["boruvka"]
    sim_payloads = {label: next(it)[0] for label in configs}
    return ref_results, ref_boruvka, sim_payloads


def run_oracle(
    graph: CSRGraph,
    configs: dict[str, AmstConfig] | None = None,
    *,
    references: dict | None = None,
    certify: bool = True,
    cache=None,
    jobs: int = 1,
) -> OracleReport:
    """Differentially verify simulator configuration(s) on one graph.

    Parameters
    ----------
    graph:
        The input graph (any :class:`CSRGraph`, including disconnected,
        empty and multigraph inputs).
    configs:
        Simulator configurations to run, keyed by label (reported as
        ``sim:<label>``); defaults to :data:`ORACLE_CONFIGS`.
    references:
        Reference implementations (defaults to :data:`REFERENCES`); the
        first entry — conventionally Kruskal — is the canonical oracle.
    certify:
        Additionally prove every simulator forest minimal from first
        principles via the cycle property (O(m·h), h the forest height).
    cache:
        Optional :class:`~repro.bench.runcache.RunCache`: memoizes
        reference forests, preprocessing passes and whole simulator
        runs under content-addressed keys (serial path only).
    jobs:
        ``> 1`` fans every reference and simulator run across a process
        pool with the graph published via shared memory; the report is
        byte-identical to ``jobs=1``.
    """
    if references is None:
        references = REFERENCES
    if configs is None:
        configs = ORACLE_CONFIGS
    canonical = next(iter(references))

    tel = current_telemetry()
    oracle_scope = (
        tel.spans.span(
            "oracle", category="phase",
            n=graph.num_vertices, m=graph.num_edges,
            configs=len(configs), references=len(references),
        )
        if tel is not None
        else nullcontext()
    )
    with oracle_scope:
        if jobs > 1 and len(references) + len(configs) > 1:
            ref_results, ref_boruvka, sim_payloads = _parallel_runs(
                graph, references, configs, certify, jobs)
        else:
            ref_results, ref_boruvka, sim_payloads = _serial_runs(
                graph, references, configs, certify, cache)

    report = OracleReport(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        canonical=canonical,
    )
    _, _, w = graph.edge_endpoints()
    weights: dict[bytes, float] = {}
    for name, result in ref_results.items():
        report.entries[name] = _entry(name, "reference", result, weights, w)
    base = report.entries[canonical]

    ref_iter_comps = [
        it.num_components_before
        for it in ref_boruvka.extras["stats"].iterations
    ]

    for label, (result, _, _) in sim_payloads.items():
        name = f"sim:{label}"
        report.entries[name] = _entry(name, "simulator", result, weights, w)

    for name, entry in report.entries.items():
        if name == canonical:
            continue
        _compare(graph, base, entry, report.mismatches)

    for label, (_, sim_comps, cert_error) in sim_payloads.items():
        name = f"sim:{label}"
        entry = report.entries[name]
        if entry.iterations != ref_boruvka.iterations:
            report.mismatches.append(OracleMismatch(
                name, "iteration-count",
                f"{entry.iterations} iterations != reference Borůvka's "
                f"{ref_boruvka.iterations}",
            ))
        elif sim_comps != ref_iter_comps:
            report.mismatches.append(OracleMismatch(
                name, "per-iteration-components",
                f"component counts per iteration {sim_comps} != "
                f"reference {ref_iter_comps}",
            ))
        if cert_error is not None:
            report.mismatches.append(
                OracleMismatch(name, "certificate", cert_error)
            )
    if tel is not None:
        tel.metrics.inc("oracle.entries", len(report.entries))
        tel.metrics.inc("oracle.mismatches", len(report.mismatches))
    return report
