"""AMST top level: the Top Controller (Section V-A, Fig 5).

:class:`Amst` wires preprocessing, the per-iteration module sequence
(FM → RAPE → CM), the caches and the HBM model together, iterates until
no component finds an external edge, and returns both the minimum
spanning forest (an :class:`~repro.mst.result.MSTResult`, bitwise
comparable with the reference algorithms) and a
:class:`~repro.core.perf.PerfReport` with the modelled cycles, DRAM
traffic and energy.

Typical use::

    from repro import Amst, AmstConfig
    from repro.graph import rmat

    g = rmat(16, 16, rng=7)
    amst = Amst(AmstConfig.full(parallelism=16))
    out = amst.run(g)
    print(out.result.total_weight, out.report.meps)
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.preprocess import PreprocessResult, is_weight_sorted, preprocess
from ..mst.result import MSTResult
from ..obs.context import current_telemetry
from .config import AmstConfig
from .compressing import run_compressing
from .events import EventLog
from .finding import run_finding
from .perf import PerfReport, build_report
from .rape import run_rape
from .selfcheck import check_report_consistency
from .state import SimState
from .timing import CACHE_METHODS, HBM_METHODS, TimedSubsystem

__all__ = ["Amst", "AmstOutput"]


@dataclass(frozen=True)
class AmstOutput:
    """Everything one accelerator run produces."""

    result: MSTResult  # forest in the *original* vertex/edge id space
    report: PerfReport
    log: EventLog
    preprocess: PreprocessResult
    state: SimState  # final simulator state (caches, flags, parents)


class Amst:
    """The AMST accelerator simulator.

    Parameters
    ----------
    config:
        Architecture configuration; defaults to the paper's shipping
        16-PE configuration with every optimization enabled.
    """

    def __init__(self, config: AmstConfig | None = None) -> None:
        self.config = config if config is not None else AmstConfig.full()

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        *,
        preprocessed: PreprocessResult | None = None,
        max_iterations: int | None = None,
        telemetry=None,
    ) -> AmstOutput:
        """Compute the minimum spanning forest of ``graph``.

        ``preprocessed`` lets callers share one preprocessing pass across
        several configurations (the ablation benchmarks do this); it must
        come from ``graph``, edge-sorted as the configuration asks.  Its
        reordering may differ (the reordering sweep relies on that).  A
        run graph whose vertex or half-edge count differs from
        ``graph``'s, or, with SEW on, whose half-edges are not in
        ascending ``(weight, eid)`` order per vertex, raises
        :class:`ValueError`.

        ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry`, or the
        ambient one installed with :func:`repro.obs.activate` when None)
        records a run → iteration → stage → subsystem → kernel span
        tree: its recorder is attached to the run's
        :class:`~repro.core.timing.HostTimers` for the length of the
        run, so every timer section is also a span.  It is strictly
        read-only: the result is byte-identical with telemetry on or
        off.

        Weights may be any float but NaN and +inf: the MinEdge table
        holds +inf for "no edge yet", so such an edge could never be
        committed.  A graph that has one raises :class:`ValueError`
        naming the first such undirected edge id, before preprocessing.
        """
        _check_weights(graph)
        cfg = self.config
        tel = telemetry if telemetry is not None else current_telemetry()
        run_scope = (
            tel.spans.span(
                "amst.run", category="run",
                n=graph.num_vertices, m=graph.num_edges,
                parallelism=cfg.parallelism,
            )
            if tel is not None
            else nullcontext()
        )
        with run_scope:
            return self._run(cfg, graph, preprocessed, max_iterations, tel)

    def _run(
        self,
        cfg: AmstConfig,
        graph: CSRGraph,
        preprocessed: PreprocessResult | None,
        max_iterations: int | None,
        tel,
    ) -> AmstOutput:
        if preprocessed is None:
            pre_scope = (
                tel.spans.span("preprocess", category="stage")
                if tel is not None
                else nullcontext()
            )
            with pre_scope:
                preprocessed = preprocess(
                    graph,
                    reorder="sort" if cfg.use_hdc else "identity",
                    sort_edges_by_weight=cfg.sort_edges_by_weight,
                )
        else:
            _check_preprocessed(graph, preprocessed.graph, cfg)
        g = preprocessed.graph
        state = SimState.initial(g, cfg)
        timers = state.timers
        # Route cache/HBM calls through timing proxies so the host
        # profile attributes simulator time per subsystem (timing.py).
        state.parent_cache = TimedSubsystem(
            state.parent_cache, timers, "sub.cache.parent", CACHE_METHODS)
        state.minedge_cache = TimedSubsystem(
            state.minedge_cache, timers, "sub.cache.minedge", CACHE_METHODS)
        state.hbm = TimedSubsystem(state.hbm, timers, "sub.hbm", HBM_METHODS)
        if tel is not None:
            timers.recorder = tel.spans  # every section is also a span
        log = EventLog()
        mst_chunks: list[np.ndarray] = []
        total_weight = 0.0
        limit = (
            max_iterations
            if max_iterations is not None
            else 2 * max(g.num_vertices, 1)
        )

        completed = 0
        while state.iteration < limit:
            ev = log.new_iteration()
            iter_scope = (
                tel.spans.span(
                    f"iteration {ev.iteration}", category="iteration",
                )
                if tel is not None
                else nullcontext()
            )
            with iter_scope:
                with timers.section("stage.fm"):
                    found = run_finding(state, ev)
                ev.parent_cache_utilization = (
                    state.parent_cache.utilization())
                ev.minedge_cache_utilization = (
                    state.minedge_cache.utilization())
                if found.num_candidates == 0:
                    # Termination probe: the hardware discovers
                    # completion by running FM and finding no external
                    # edge; the pass stays in the log (its cycles and
                    # traffic are real) but does not count as a Borůvka
                    # iteration.
                    break
                with timers.section("stage.rm_am"):
                    rape = run_rape(state, ev)
                mst_chunks.append(rape.appended_eids)
                total_weight += rape.appended_weight
                state.iteration += 1
                completed += 1
                with timers.section("stage.cm"):
                    run_compressing(state, ev, rape.hooked_roots)
                state.reset_minedge()
                ev.parent_cache_utilization = (
                    state.parent_cache.utilization())
                ev.minedge_cache_utilization = (
                    state.minedge_cache.utilization())
                if cfg.self_check:
                    state.check_invariants(log)

        edge_ids = (
            np.concatenate(mst_chunks)
            if mst_chunks
            else np.empty(0, np.int64)
        )
        # Edge ids are preserved by permutation/sorting, so they already
        # live in the input graph's eid space; only vertices were renamed.
        result = MSTResult(
            edge_ids=edge_ids,
            total_weight=total_weight,
            num_components=g.num_vertices - edge_ids.size,
            iterations=completed,
            extras={"config": cfg},
        )
        report = build_report(log, cfg, g.num_edges)
        if cfg.self_check:
            state.check_invariants(log)
            check_report_consistency(log, report)
        report.extra["host_timing"] = timers.snapshot()
        # the recorder holds thread-local state: detach it so the output
        # (whose state carries the timers) still pickles
        timers.recorder = None
        return AmstOutput(
            result=result,
            report=report,
            log=log,
            preprocess=preprocessed,
            state=state,
        )


def _check_weights(graph: CSRGraph) -> None:
    """Reject a NaN or +inf weight (a NaN maximum fails the test too)."""
    w = graph.weight
    if w.size and not w.max() < np.inf:
        bad = np.flatnonzero(~(w < np.inf))
        k = bad[np.argmin(graph.eid[bad])]
        raise ValueError(
            f"edge {int(graph.eid[k])} has weight {w[k]}; Amst.run needs "
            "weights below +inf and not NaN")


def _check_preprocessed(graph: CSRGraph, g: CSRGraph, cfg: AmstConfig) -> None:
    """Reject a caller's run graph that cannot come from ``graph``."""
    if (g.num_vertices, g.num_half_edges) != (
            graph.num_vertices, graph.num_half_edges):
        raise ValueError(
            f"preprocessed graph has {g.num_vertices} vertices and "
            f"{g.num_half_edges} half-edges; the input graph has "
            f"{graph.num_vertices} and {graph.num_half_edges}")
    if cfg.sort_edges_by_weight and not is_weight_sorted(g):
        raise ValueError(
            "SEW is on but the preprocessed graph's half-edges are not in "
            "(weight, eid) order; preprocess with sort_edges_by_weight=True")
