"""The MinEdge commit's closed-form counts against a batch-by-batch model.

``finding._commit_minedge`` computes the effect of the sorting network
and the MinEdge writer over a whole candidate stream at once.  The model
here walks the same stream one ``parallelism``-wide batch at a time, the
way the hardware does: each batch's FPEs read me_p at dispatch (a
snapshot of what earlier batches committed), the candidates that beat
it go through the real compare-exchange network
(:meth:`SortingNetwork.process_batch`), and the writer read-compare-
writes each survivor.  Candidates are ordered by ``(weight, eid)``,
with equal pairs (mirrored candidates) in stream order.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AmstConfig, SimState, SortingNetwork
from repro.core.events import IterationEvents
from repro.core.finding import _commit_minedge
from repro.graph import CSRGraph

NUM_COMPONENTS = 8
WEIGHTS = (0.5, 1.0, 1.0, 2.0, -0.0, 0.0, np.inf)

COUNTS = (
    "fm.candidates_filtered", "fm.candidates_forwarded",
    "net.batches", "net.conflicts_merged", "net.stages",
    "net.atomic_conflicts", "fm.minedge_writer_reads",
    "fm.minedge_writer_commits", "fm.minedge_updates",
)


@st.composite
def candidate_streams(draw):
    """``(comp, w, eid, target)``: few components, so they collide within
    and across batches; a mirror repeats an earlier ``(w, eid)`` pair
    once, and weights come either from a small pool (ties everywhere) or
    a wide range (ties only where mirrored)."""
    weights = draw(st.sampled_from(
        [st.sampled_from(WEIGHTS), st.integers(0, 2**20).map(float)]))
    comp, w, eid, target = [], [], [], []
    unmirrored: list[int] = []
    for k in range(draw(st.integers(0, 48))):
        if unmirrored and draw(st.booleans()):
            j = unmirrored.pop(draw(st.integers(0, len(unmirrored) - 1)))
            w.append(w[j])  # the other endpoint's view of edge eid[j]
            eid.append(eid[j])
        else:
            w.append(draw(weights))
            eid.append(draw(st.integers(0, 5)))
            unmirrored.append(k)
        comp.append(draw(st.integers(0, NUM_COMPONENTS - 1)))
        target.append(draw(st.integers(0, NUM_COMPONENTS - 1)))
    return (np.array(comp, np.int64), np.array(w, np.float64),
            np.array(eid, np.int64), np.array(target, np.int64))


def _state(parallelism: int, network: bool) -> SimState:
    n = NUM_COMPONENTS
    g = CSRGraph(np.zeros(n + 1, np.int64), np.empty(0, np.int64),
                 np.empty(0), np.empty(0, np.int64))
    cfg = AmstConfig.full(parallelism, cache_vertices=4).with_(
        use_sorting_network=network)
    return SimState.initial(g, cfg)


def _model(comp, w, eid, target, p: int, network: bool):
    """Batch-by-batch scalar MinEdge commit: ``(counts, table)``."""
    m = comp.size
    rank = [0] * m
    for r, i in enumerate(sorted(range(m), key=lambda i: (w[i], eid[i], i))):
        rank[i] = r
    me_p: dict[int, int] = {}  # component -> committed candidate
    net = SortingNetwork(p)
    counts = dict.fromkeys(COUNTS, 0)
    for start in range(0, m, p):
        batch = range(start, min(start + p, m))
        snapshot = {c: rank[i] for c, i in me_p.items()}
        fwd = [i for i in batch
               if rank[i] < snapshot.get(int(comp[i]), m)]
        counts["fm.candidates_filtered"] += len(batch) - len(fwd)
        counts["fm.candidates_forwarded"] += len(fwd)
        merged = net.stats.conflicts_merged
        addrs, values = net.process_batch(
            comp[fwd], np.array([rank[i] for i in fwd], np.float64))
        merged = net.stats.conflicts_merged - merged
        if not network:
            # every forwarded candidate issues its own atomic RMW
            counts["net.atomic_conflicts"] += merged
        counts["fm.minedge_writer_reads"] += (
            addrs.size if network else len(fwd))
        by_rank = {rank[i]: i for i in fwd}
        for a, v in zip(addrs.tolist(), values.tolist()):
            winner = by_rank[int(v)]
            if a not in me_p or rank[winner] < rank[me_p[a]]:
                counts["fm.minedge_writer_commits"] += 1
                me_p[a] = winner
    if network:
        counts["net.batches"] = net.stats.batches
        counts["net.conflicts_merged"] = net.stats.conflicts_merged
        counts["net.stages"] = net.stats.stages_executed
    counts["fm.minedge_updates"] = len(set(comp.tolist()))
    # the functional table holds each component's minimum candidate; an
    # inf-weight minimum never beats the reset entry
    table = {c: (w[i], eid[i], target[i]) for c, i in me_p.items()
             if w[i] < np.inf}
    return counts, table


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(candidate_streams(), st.sampled_from([1, 2, 4, 16]), st.booleans())
def test_commit_matches_batch_model(stream, p, network):
    comp, w, eid, target = stream
    state = _state(p, network)
    ev = IterationEvents(0)
    comps = _commit_minedge(state, ev, comp, w, eid, target)
    counts, table = _model(comp, w, eid, target, p, network)
    assert comps.tolist() == sorted(set(comp.tolist()))
    assert {k: ev.get(k) for k in COUNTS} == counts
    for c in range(NUM_COMPONENTS):
        got = (state.me_weight[c], state.me_eid[c], state.me_target[c])
        want = table.get(c, (np.inf, -1, -1))
        assert got == want, (c, got, want)
