"""Cross-validation: vectorized FM vs the scalar FPE specification.

`reference_finding_pass` executes Fig 7 literally, one vertex at a time;
the vectorized `run_finding` must produce identical flags, identical
per-component minima, identical operation counts and the same Parent
lookups in the same order — on a fresh state and on mid-run states
(after k completed iterations).
"""

import copy

import numpy as np
import pytest

from repro.core import Amst, AmstConfig
from repro.core.events import IterationEvents
from repro.core.finding import run_finding
from repro.core.fpe_reference import reference_finding_pass
from repro.graph import (
    erdos_renyi,
    from_edges,
    paper_example,
    preprocess,
    rmat,
    road_lattice,
)


def _mid_state(graph, cfg, k):
    """Simulator state just before iteration k's FM pass."""
    pre = preprocess(graph, reorder="sort",
                     sort_edges_by_weight=cfg.sort_edges_by_weight)
    out = Amst(cfg).run(graph, preprocessed=pre, max_iterations=k)
    return out.state


class _LookupRecorder:
    """Passes cache calls through, keeping the ids of every lookup."""

    def __init__(self, inner):
        self._inner = inner
        self.lookups = []

    def lookup(self, ids):
        self.lookups.append(np.array(ids, copy=True))
        return self._inner.lookup(ids)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _compare(state):
    """Run both models from identical state; assert equivalence."""
    g = state.graph
    cfg = state.cfg
    sie = cfg.skip_intra_edges
    # reference works on copies
    ref_parent = state.parent.copy()
    ref_ie = state.ie.copy()
    ref_iv = state.iv.copy()
    ie_before = state.ie.copy()
    ref = reference_finding_pass(
        g, ref_parent, ref_ie, ref_iv,
        sew=cfg.sort_edges_by_weight, sie=sie,
        siv=cfg.skip_intra_vertices,
    )
    cache_before = copy.deepcopy(state.parent_cache)
    state.parent_cache = recorder = _LookupRecorder(state.parent_cache)
    ev = IterationEvents(0)
    run_finding(state, ev)

    # flags evolve identically
    assert np.array_equal(state.ie, ref_ie)
    assert np.array_equal(state.iv, ref_iv)

    # the first-read Parent lookups go out vertex by vertex, positions
    # ascending: every examined edge the FPE did not skip by its flag
    looked_up = [k for r in ref
                 for k in range(g.indptr[r.vertex],
                                g.indptr[r.vertex] + r.edges_examined)
                 if not (sie and ie_before[k])]
    want_ids = g.dst[np.array(looked_up, dtype=np.int64)]
    assert recorder.lookups[0].tobytes() == want_ids.tobytes()
    # so an order-sensitive (LRU) cache scores the same hits
    assert ev.get("fm.parent_hits") == int(
        np.count_nonzero(cache_before.lookup(want_ids)))

    # identical op counts
    assert ev.get("fm.edges_examined") == sum(r.edges_examined for r in ref)
    assert ev.get("fm.weight_compares") == sum(
        r.weight_compares for r in ref)
    assert (ev.get("fm.parent_lookups") + ev.get("fm.stale_hops")
            == sum(r.parent_reads for r in ref))
    assert ev.get("fm.tasks") == len(ref)
    found = [r for r in ref if r.candidate_eid >= 0]
    assert ev.get("fm.candidates") == len(found)

    # identical per-component minima
    mins = {}
    for r in found:
        comp = _root(ref_parent, r.vertex)
        key = (r.candidate_weight, r.candidate_eid)
        if comp not in mins or key < mins[comp]:
            mins[comp] = key
    for comp, (w, eid) in mins.items():
        assert state.me_weight[comp] == w
        assert state.me_eid[comp] == eid


def _root(parent, v):
    cur = int(parent[v])
    while parent[cur] != cur:
        cur = int(parent[cur])
    return cur


GRAPHS = [
    ("paper", lambda: paper_example()),
    ("rmat", lambda: rmat(8, 6, rng=11)),
    ("road", lambda: road_lattice(14, 14, rng=12)),
    ("er", lambda: erdos_renyi(120, 360, rng=13)),
]


@pytest.mark.parametrize("name,make", GRAPHS, ids=[g[0] for g in GRAPHS])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_vectorized_fm_matches_scalar_spec(name, make, k):
    cfg = AmstConfig.full(4, cache_vertices=16)
    state = _mid_state(make(), cfg, k)
    _compare(state)


@pytest.mark.parametrize("sew", [True, False], ids=["sew", "no-sew"])
@pytest.mark.parametrize("siv", [True, False], ids=["siv", "no-siv"])
def test_toggle_combinations_match(sew, siv):
    cfg = AmstConfig.full(4, cache_vertices=16).with_(
        sort_edges_by_weight=sew, skip_intra_vertices=siv)
    state = _mid_state(rmat(8, 6, rng=14), cfg, 1)
    _compare(state)


def test_no_sie_never_marks_flags():
    cfg = AmstConfig.full(4, cache_vertices=16).with_(
        skip_intra_edges=False)
    state = _mid_state(rmat(8, 6, rng=15), cfg, 2)
    _compare(state)
    assert not state.ie.any()


#: configurations whose every iteration is checked: SIV off reschedules
#: intra-vertices, whose SEW scan cursor sits at their segment end; the
#: LRU cache's hits depend on the lookup order
EVERY_ITERATION = {
    "sew-sie-no-siv": AmstConfig.full(4, cache_vertices=16).with_(
        skip_intra_vertices=False),
    "lru": AmstConfig.full(4, cache_vertices=16).with_(
        hash_cache=False, lru_cache=True),
}


@pytest.mark.parametrize("name", list(EVERY_ITERATION))
def test_every_iteration_matches_scalar_spec(name):
    cfg = EVERY_ITERATION[name]
    g = rmat(8, 6, rng=16)
    iterations = Amst(cfg).run(g).result.iterations
    assert iterations >= 3
    cursor_at_end = 0
    for k in range(iterations + 1):
        state = _mid_state(g, cfg, k)
        seg_end = state.graph.indptr[1:]
        cursor_at_end += int(np.count_nonzero(
            state.iv & (state.scan_from == seg_end)
            & (state.graph.degrees() > 0)))
        _compare(state)
    if not cfg.skip_intra_vertices:
        assert cursor_at_end > 0


def _hub_stars():
    """Stars of 12-90 light leaf edges joined by heavy hub-hub edges.

    After one iteration each star is one component, so a hub's first
    external edge sits behind all of its now-internal leaf edges, up to
    90 positions into its segment.
    """
    rng = np.random.default_rng(21)
    leaves = np.array([12, 30, 60, 90])
    hubs = np.concatenate(([0], np.cumsum(leaves + 1)[:-1]))
    u = np.repeat(hubs, leaves)
    v = u + np.concatenate([np.arange(1, k + 1) for k in leaves])
    a, b = np.triu_indices(hubs.size, 1)
    return from_edges(
        int(hubs[-1] + leaves[-1] + 1),
        np.concatenate((u, hubs[a])),
        np.concatenate((v, hubs[b])),
        np.concatenate((rng.uniform(1, 100, u.size),
                        rng.uniform(200, 300, a.size))),
    )


@pytest.mark.parametrize("siv", [True, False], ids=["siv", "no-siv"])
@pytest.mark.parametrize("sie", [True, False], ids=["sie", "no-sie"])
def test_hub_first_external_edges_deep_in_segment(sie, siv):
    cfg = AmstConfig.full(4, cache_vertices=16).with_(
        skip_intra_edges=sie, skip_intra_vertices=siv)
    state = _mid_state(_hub_stars(), cfg, 1)
    before = state.timers.calls["kernel.fm_scan"]
    _compare(state)
    # scan rounds cover 8, then 16, 32, 64 more edges of a segment: the
    # 30-, 60- and 90-leaf hubs need rounds 3 and 4
    assert state.timers.calls["kernel.fm_scan"] - before == 4
