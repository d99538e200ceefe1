"""Simulator self-check: structural invariants validated while running.

Opt-in via ``AmstConfig(self_check=True)`` / ``amst run --self-check``;
:class:`~repro.core.accelerator.Amst` then calls
:meth:`SimState.check_invariants` after every iteration and
:func:`check_report_consistency` once the performance report is built.
The checks are read-only — they never touch the cache counters, the HBM
model or the event ledger, so enabling them cannot change a single
event count (golden traces are identical with the mode on or off).

Three invariant families (see docs/TESTING.md):

* **union-find shape** — Parent entries in range, pointer chains
  acyclic (bounded pointer doubling), the Root list exactly the set of
  fixed points, frozen IV/IE flags semantically consistent with the
  current components; with SEW and SIE each vertex's IE flags exactly
  the prefix of its segment before its scan cursor;
* **cache conservation laws** — ``hits + misses == accesses``,
  ``cache_writes + dram_writes == writes``, ``evictions <= misses +
  writes``, all counters monotone non-decreasing, and the cumulative
  event-ledger counts reconciling exactly with the cache counters
  (every ledgered Parent/MinEdge access corresponds to one cache call);
* **event/perf consistency** — per-iteration count identities
  (forwarded + filtered == candidates, appends + mirrors == tasks) and
  a full rebuild of the :class:`~repro.core.perf.PerfReport` from the
  ledger that must agree with the report the run produced.

Every violation raises :class:`SelfCheckError` listing *all* broken
invariants, so fault-injection tests can assert on specifics.
"""

from __future__ import annotations

import numpy as np

from ..mst.forest import acyclic_roots
from .events import EventLog
from .perf import PerfReport, build_report

__all__ = ["SelfCheckError", "check_state_invariants",
           "check_report_consistency"]


class SelfCheckError(AssertionError):
    """A simulator invariant was violated (corrupted state or counts)."""


def _cache_problems(label: str, stats, prev: tuple | None) -> list[str]:
    out = [f"{label} cache: {v}" for v in stats.conservation_violations()]
    if prev is not None:
        for name, before, now in zip(
            ("hits", "misses", "cache_writes", "dram_writes",
             "invalidations", "accesses", "writes", "evictions"),
            prev, stats.as_tuple(),
        ):
            if now < before:
                out.append(
                    f"{label} cache: counter {name} decreased "
                    f"({before} -> {now})"
                )
    return out


# Cumulative ledger keys that must reconcile with the Parent cache.
_PARENT_LOOKUP_KEYS = (
    "fm.parent_lookups", "fm.stale_hops", "rape.parent_reads",
    "cm.root.parent_reads", "cm.leaf_hdv.parent_reads",
    "cm.leaf_ldv.parent_reads",
)
_PARENT_WRITE_KEYS = ("rape.parent_writes", "cm.root_tasks",
                      "cm.leaf_writes")
_MINEDGE_LOOKUP_KEYS = ("fm.minedge_reads", "rape.minedge_reads")
_MINEDGE_WRITE_KEYS = ("fm.minedge_updates",)


def _ledger_problems(state, log: EventLog) -> list[str]:
    """Cross-check cumulative ledger counts against the cache counters.

    Every emitting site pairs one cache call with one ledger increment
    of the same size (``finding.py`` / ``rape.py`` / ``compressing.py``),
    so the totals must match exactly; an undercounted hit or a dropped
    event breaks the reconciliation.
    """
    totals = log.grand_totals()
    out = []

    expect_pl = sum(totals.get(k, 0) for k in _PARENT_LOOKUP_KEYS)
    got_pl = state.parent_cache.stats.accesses
    if expect_pl != got_pl:
        out.append(
            f"parent cache accesses ({got_pl}) != ledgered Parent reads "
            f"({expect_pl})"
        )
    expect_pw = sum(totals.get(k, 0) for k in _PARENT_WRITE_KEYS)
    if state.cfg.skip_intra_vertices:
        expect_pw += totals.get("fm.iv_marks", 0)  # IV flag write-back
    got_pw = state.parent_cache.stats.writes
    if expect_pw != got_pw:
        out.append(
            f"parent cache writes ({got_pw}) != ledgered Parent writes "
            f"({expect_pw})"
        )

    expect_ml = sum(totals.get(k, 0) for k in _MINEDGE_LOOKUP_KEYS)
    got_ml = state.minedge_cache.stats.accesses
    if expect_ml != got_ml:
        out.append(
            f"minedge cache accesses ({got_ml}) != ledgered MinEdge "
            f"reads ({expect_ml})"
        )
    expect_mw = sum(totals.get(k, 0) for k in _MINEDGE_WRITE_KEYS)
    got_mw = state.minedge_cache.stats.writes
    if expect_mw != got_mw:
        out.append(
            f"minedge cache writes ({got_mw}) != ledgered MinEdge "
            f"updates ({expect_mw})"
        )
    return out


def _event_problems(log: EventLog) -> list[str]:
    """Per-iteration count identities that hold by construction."""
    out = []
    for ev in log.iterations:
        it = ev.iteration
        for key, value in ev.counts.items():
            if value < 0:
                out.append(f"it {it}: negative event count {key} = {value}")
        cand = ev.get("fm.candidates")
        fwd = ev.get("fm.candidates_forwarded")
        flt = ev.get("fm.candidates_filtered")
        if fwd + flt != cand:
            out.append(
                f"it {it}: forwarded ({fwd}) + filtered ({flt}) != "
                f"candidates ({cand})"
            )
        tasks = ev.get("rape.tasks")
        apps = ev.get("rape.appends")
        mirrors = ev.get("rape.mirrors_removed")
        if tasks and apps + mirrors != tasks:
            out.append(
                f"it {it}: appends ({apps}) + mirrors ({mirrors}) != "
                f"RAPE tasks ({tasks})"
            )
        if ev.get("fm.parent_hits") > ev.get("fm.parent_lookups"):
            out.append(
                f"it {it}: fm.parent_hits > fm.parent_lookups"
            )
        examined = ev.get("fm.edges_examined")
        skipped = ev.get("fm.edges_skipped_ie")
        lookups = ev.get("fm.parent_lookups")
        if skipped + lookups != examined:
            out.append(
                f"it {it}: skipped-IE ({skipped}) + Parent lookups "
                f"({lookups}) != edges examined ({examined})"
            )
    return out


def check_state_invariants(state, log: EventLog | None = None) -> None:
    """Validate one :class:`~repro.core.state.SimState` snapshot.

    Called (via :meth:`SimState.check_invariants`) at iteration
    boundaries — after the Compressing Module committed and the MinEdge
    table was reset.  ``log`` additionally enables the ledger/cache
    reconciliation and the per-iteration event identities.

    Raises :class:`SelfCheckError` listing every violated invariant.
    """
    g = state.graph
    n = g.num_vertices
    parent = state.parent
    problems: list[str] = []

    # ---- union-find shape -------------------------------------------------
    if n and (int(parent.min()) < 0 or int(parent.max()) >= n):
        problems.append("parent entry out of range [0, n)")
        resolved = None
    else:
        resolved = acyclic_roots(parent)
        if resolved is None:
            problems.append(
                "parent chains do not converge (union-find cycle)"
            )

    fixed = np.flatnonzero(parent == np.arange(n, dtype=np.int64))
    roots = np.sort(np.asarray(state.roots, dtype=np.int64))
    if np.unique(roots).size != roots.size:
        problems.append("duplicate entries in the Root list")
    elif not np.array_equal(roots, fixed):
        missing = np.setdiff1d(fixed, roots).size
        stale = np.setdiff1d(roots, fixed).size
        problems.append(
            f"Root list != parent fixed points ({missing} missing, "
            f"{stale} stale)"
        )

    if n and int(state.fresh_at.max()) > state.iteration:
        problems.append("fresh_at marker ahead of the iteration counter")
    if n and int(state.fresh_at.min()) < 0:
        problems.append("negative fresh_at marker")

    # ---- MinEdge table ----------------------------------------------------
    null = state.me_eid < 0
    if not np.all(np.isinf(state.me_weight[null])):
        problems.append("null MinEdge entry with a finite weight")
    if not np.all(state.me_target[null] == -1):
        problems.append("null MinEdge entry with a live target")
    live = ~null
    if live.any():
        if int(state.me_eid[live].max()) >= g.num_edges:
            problems.append("MinEdge eid out of range")
        if (int(state.me_target[live].min()) < 0
                or int(state.me_target[live].max()) >= n):
            problems.append("MinEdge target out of range")
        if not np.all(np.isfinite(state.me_weight[live])):
            problems.append("live MinEdge entry with non-finite weight")

    # ---- frozen-flag semantics -------------------------------------------
    if resolved is not None and g.num_half_edges:
        src = g.src_expanded()
        external = resolved[src] != resolved[g.dst]
        bad_ie = int(np.count_nonzero(state.ie & external))
        if bad_ie:
            problems.append(
                f"{bad_ie} intra-edge flag(s) set on external half-edges"
            )
        bad_iv = int(np.count_nonzero(external & state.iv[src]))
        if bad_iv:
            problems.append(
                f"{bad_iv} external half-edge(s) incident to intra-vertices"
            )

    # ---- SEW scan cursor --------------------------------------------------
    # With SEW and SIE the Finding Module marks IE only up to each
    # vertex's first external edge and moves the cursor there, so the
    # flags are exactly the prefix before the cursor.
    if state.cfg.sort_edges_by_weight and state.cfg.skip_intra_edges:
        cursor = state.scan_from
        if ((cursor < g.indptr[:-1]) | (cursor > g.indptr[1:])).any():
            problems.append("scan cursor outside its vertex's segment")
        else:
            prefix = (np.arange(g.num_half_edges)
                      < cursor[g.src_expanded()])
            bad = int(np.count_nonzero(prefix != state.ie))
            if bad:
                problems.append(
                    f"{bad} intra-edge flag(s) differ from the prefix "
                    "before their vertex's scan cursor")

    # ---- cache conservation laws -----------------------------------------
    prev = getattr(state, "_selfcheck_prev", None) or {}
    problems += _cache_problems(
        "parent", state.parent_cache.stats, prev.get("parent")
    )
    problems += _cache_problems(
        "minedge", state.minedge_cache.stats, prev.get("minedge")
    )
    object.__setattr__(state, "_selfcheck_prev", {
        "parent": state.parent_cache.stats.as_tuple(),
        "minedge": state.minedge_cache.stats.as_tuple(),
    })

    # ---- ledger consistency ----------------------------------------------
    if log is not None:
        appended = log.total("rape.appends")
        if roots.size != n - appended:
            problems.append(
                f"component conservation broken: {roots.size} roots != "
                f"n ({n}) - appended edges ({appended})"
            )
        problems += _ledger_problems(state, log)
        problems += _event_problems(log)

    if problems:
        raise SelfCheckError(
            f"self-check failed at iteration {state.iteration}:\n  - "
            + "\n  - ".join(problems)
        )


def check_report_consistency(log: EventLog, report: PerfReport) -> None:
    """Event-count consistency between the ledger and the perf model.

    Rebuilds the report from the ledger and asserts the run's report
    agrees on every derived quantity — a dropped iteration or a count
    mutated after pricing breaks the rebuild.
    """
    problems: list[str] = []
    if report.num_iterations != log.num_iterations:
        problems.append(
            f"report iterations ({report.num_iterations}) != logged "
            f"iterations ({log.num_iterations})"
        )
    mem_total = sum(ev.total("mem.") for ev in log.iterations)
    if report.dram_blocks != mem_total:
        problems.append(
            f"report DRAM blocks ({report.dram_blocks}) != ledger total "
            f"({mem_total})"
        )
    if report.dram_random_blocks > report.dram_blocks:
        problems.append("random DRAM blocks exceed total DRAM blocks")

    rebuilt = build_report(log, report.cfg, report.num_edges)
    for attr in ("total_cycles", "overlap_cycles_hidden", "dram_blocks",
                 "dram_random_blocks", "compute_work"):
        a, b = getattr(report, attr), getattr(rebuilt, attr)
        if a != b:
            problems.append(f"report {attr} ({a}) != rebuilt value ({b})")
    if report.module_cycles != rebuilt.module_cycles:
        problems.append(
            f"report module cycles {report.module_cycles} != rebuilt "
            f"{rebuilt.module_cycles}"
        )
    if problems:
        raise SelfCheckError(
            "report/event consistency failed:\n  - " + "\n  - ".join(problems)
        )
