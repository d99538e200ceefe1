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
from ..graph.preprocess import PreprocessResult, preprocess
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
        have been produced from the same graph with reordering and edge
        sorting consistent with the configuration.

        ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry`, or the
        ambient one installed with :func:`repro.obs.activate` when None)
        records a run → iteration → stage → subsystem span tree and is
        strictly read-only: the result is byte-identical with telemetry
        on or off.
        """
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
        log = EventLog()
        mst_chunks: list[np.ndarray] = []
        total_weight = 0.0
        limit = (
            max_iterations
            if max_iterations is not None
            else 2 * max(g.num_vertices, 1)
        )

        # Stage scopes: a plain timer section without telemetry, a stage
        # span wrapping the same section (plus synthetic per-subsystem
        # child spans) with it.  Either way the simulated work is
        # untouched — telemetry only observes.
        def stage(name):
            if tel is not None:
                return tel.stage(timers, name)
            return timers.section(name)

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
                with stage("stage.fm"):
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
                with stage("stage.rm_am"):
                    rape = run_rape(state, ev)
                mst_chunks.append(rape.appended_eids)
                total_weight += rape.appended_weight
                state.iteration += 1
                completed += 1
                with stage("stage.cm"):
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
        return AmstOutput(
            result=result,
            report=report,
            log=log,
            preprocess=preprocessed,
            state=state,
        )
