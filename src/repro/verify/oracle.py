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

The inputs take one path, :func:`_oracle_inputs`: run-cache hits are
read in the parent, and the misses run as one
:func:`~repro.bench.executor.execute` task list, inline or on a
process pool.  The cache keeps only what the checks read: reference
results, each configuration's forest with its per-iteration component
counts, and certificate verdicts.

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
from ..graph.preprocess import preprocess
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
    """Structured outcome of one differential run.

    ``tasks_run`` counts the reference and simulator tasks the call ran;
    0 means the run cache answered every one of them.
    """

    num_vertices: int
    num_edges: int
    canonical: str
    entries: dict[str, OracleEntry] = field(default_factory=dict)
    mismatches: list[OracleMismatch] = field(default_factory=list)
    tasks_run: int = 0

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


def _reference_task(algo, graph) -> tuple:
    """Task body: one reference MST over the graph or its shm handle."""
    from ..graph.shm import resolve_graph

    return (algo(resolve_graph(graph)),)


def _simulator_task(cfgs: list[AmstConfig], graph) -> tuple:
    """Task body: simulator runs that share one preprocessing pass.

    Every configuration in ``cfgs`` implies the same
    :func:`~repro.bench.runcache.preprocess_options`, so one
    :func:`preprocess` call serves them all.  Each run yields only what
    the oracle checks, a ``(result, per-iteration component counts)``
    payload: no whole :class:`~repro.core.AmstOutput` crosses the pool
    or enters the run cache.
    """
    from ..bench.runcache import preprocess_options
    from ..graph.shm import resolve_graph

    g = resolve_graph(graph)
    reorder, sew = preprocess_options(cfgs[0])
    pre = preprocess(g, reorder=reorder, sort_edges_by_weight=sew)
    payloads = []
    for cfg in cfgs:
        out = Amst(cfg).run(g, preprocessed=pre)
        payloads.append((out.result, _sim_components_per_iteration(out)))
    return tuple(payloads)


def _oracle_inputs(graph, references, configs, cache, fp, jobs):
    """Every reference result and simulator payload the report needs.

    Each value has one run-cache key: ``ref:<graph>:<name>`` (reference
    Borůvka is added when ``references`` lacks it, for the per-iteration
    component counts) and ``oracle:<graph>:<config>``.  The parent reads
    the hits; the misses run as one task list through
    :func:`~repro.bench.executor.execute` — one task per reference, one
    per group of configurations sharing a preprocessing pass — inline
    for ``jobs <= 1``, else on the pool with the graph published once
    through shared memory, and the parent stores what they return.
    Returns ``(references by name, payloads by label, tasks run)``.
    """
    from ..bench.executor import TaskSpec, execute
    from ..bench.runcache import config_fingerprint, preprocess_options
    from ..graph.shm import GraphStore

    refs = {**references, "boruvka": references.get("boruvka", boruvka)}
    ref_keys = {name: f"ref:{fp}:{name}" for name in refs}
    sim_keys = {label: f"oracle:{fp}:{config_fingerprint(cfg)}"
                for label, cfg in configs.items()}
    values = {}
    if cache is not None:
        for key in [*ref_keys.values(), *sim_keys.values()]:
            value = cache.get(key)
            if value is not None:
                values[key] = value

    todo = [name for name, key in ref_keys.items() if key not in values]
    groups: dict[tuple, dict] = {}  # preprocess options -> key -> label
    for label, cfg in configs.items():
        if sim_keys[label] not in values:
            groups.setdefault(preprocess_options(cfg), {}).setdefault(
                sim_keys[label], label)
    task_keys = [[ref_keys[name]] for name in todo]
    task_keys += [list(group) for group in groups.values()]
    if task_keys:
        with GraphStore() as store:
            shared = (store.publish_graph(graph)
                      if jobs > 1 and len(task_keys) > 1 else graph)
            tasks = [TaskSpec(key=f"oracle.ref.{name}", fn=_reference_task,
                              kwargs={"algo": refs[name], "graph": shared})
                     for name in todo]
            tasks += [TaskSpec(
                key=f"oracle.sim.{'+'.join(group.values())}",
                fn=_simulator_task,
                kwargs={"cfgs": [configs[lb] for lb in group.values()],
                        "graph": shared},
            ) for group in groups.values()]
            outputs = execute(tasks, jobs=jobs)
        for keys, output in zip(task_keys, outputs, strict=True):
            for key, value in zip(keys, output, strict=True):
                values[key] = value
                if cache is not None:
                    cache.note_miss(key)
                    cache.put(key, value)
    return ({name: values[key] for name, key in ref_keys.items()},
            {label: values[key] for label, key in sim_keys.items()},
            len(task_keys))


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
        An empty mapping raises :class:`ValueError`.
    certify:
        Additionally prove every distinct simulator forest minimal from
        first principles via the cycle property (O(m·h), h the forest
        height); the parent certifies each forest once.
    cache:
        Optional :class:`~repro.bench.runcache.RunCache`, honoured at
        every ``jobs`` value: memoizes reference forests (``ref:``),
        each configuration's forest and per-iteration component counts
        (``oracle:``) and certification verdicts (``cert:``) under
        content-addressed keys.
    jobs:
        ``> 1`` runs the cache misses on a process pool with the graph
        published via shared memory; the report is byte-identical to
        ``jobs=1``.
    """
    from ..bench.runcache import cached_certificate, graph_fingerprint

    if references is None:
        references = REFERENCES
    if not references:
        raise ValueError(
            "run_oracle: references is empty; it needs at least one "
            "implementation (the first is the canonical oracle)")
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
        fp = graph_fingerprint(graph) if cache is not None else None
        ref_results, sim_payloads, tasks_run = _oracle_inputs(
            graph, references, configs, cache, fp, jobs)
        verdicts: dict[bytes, str | None] = {}  # one per distinct forest
        for result, _ in sim_payloads.values():
            forest = result.edge_ids.tobytes()
            if certify and forest not in verdicts:
                verdicts[forest] = cached_certificate(
                    graph, result.edge_ids, cache=cache, graph_fp=fp)

    report = OracleReport(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        canonical=canonical,
        tasks_run=tasks_run,
    )
    _, _, w = graph.edge_endpoints()
    weights: dict[bytes, float] = {}
    for name in references:
        report.entries[name] = _entry(
            name, "reference", ref_results[name], weights, w)
    base = report.entries[canonical]

    ref_boruvka = ref_results["boruvka"]
    ref_iter_comps = [
        it.num_components_before
        for it in ref_boruvka.extras["stats"].iterations
    ]

    for label, (result, _) in sim_payloads.items():
        name = f"sim:{label}"
        report.entries[name] = _entry(name, "simulator", result, weights, w)

    for name, entry in report.entries.items():
        if name == canonical:
            continue
        _compare(graph, base, entry, report.mismatches)

    for label, (result, sim_comps) in sim_payloads.items():
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
        cert_error = verdicts.get(result.edge_ids.tobytes())
        if cert_error is not None:
            report.mismatches.append(
                OracleMismatch(name, "certificate", cert_error)
            )
    if tel is not None:
        tel.metrics.inc("oracle.entries", len(report.entries))
        tel.metrics.inc("oracle.mismatches", len(report.mismatches))
    return report
