"""Direct unit tests of the FM / RAPE / CM module semantics.

The accelerator tests prove end-to-end correctness; these pin down the
*per-module* behaviours on hand-crafted states, so a regression points
at the exact mechanism that broke (the RTL-bringup style of testing).
"""

import numpy as np

from repro.core import AmstConfig, SimState
from repro.core.compressing import run_compressing
from repro.core.events import IterationEvents
from repro.core.finding import run_finding
from repro.core.rape import run_rape
from repro.graph import from_edges, paper_example, star_graph


def _state(graph, **cfg_kw):
    defaults = dict(parallelism=4, cache_vertices=8)
    defaults.update(cfg_kw)
    cfg = AmstConfig.full(defaults.pop("parallelism"),
                          cache_vertices=defaults.pop("cache_vertices"))
    cfg = cfg.with_(**defaults)
    g = graph.sort_edges(by_weight=cfg.sort_edges_by_weight)
    return SimState.initial(g, cfg)


def _ev():
    return IterationEvents(0)


class TestFindingModule:
    def test_selects_minimum_edge_per_vertex(self):
        # star: every leaf's only edge is its minimum; hub picks weight 1
        st = _state(star_graph(5, weights=np.array([4.0, 1.0, 3.0, 2.0])))
        ev = _ev()
        out = run_finding(st, ev)
        assert out.num_candidates == 5  # hub + 4 leaves
        # hub's component minimum is the weight-1 edge to vertex 2
        assert st.me_weight[0] == 1.0

    def test_sew_early_exit_examines_prefix_only(self):
        # hub with 4 edges, weight-sorted: in iteration 0 every neighbor
        # is external, so the hub examines exactly 1 edge
        st = _state(star_graph(5))
        ev = _ev()
        run_finding(st, ev)
        # hub 1 + each leaf 1 = 5 examinations
        assert ev.get("fm.edges_examined") == 5

    def test_no_sew_examines_everything(self):
        st = _state(star_graph(5), sort_edges_by_weight=False)
        ev = _ev()
        run_finding(st, ev)
        assert ev.get("fm.edges_examined") == st.graph.num_half_edges

    def test_intra_edge_marked_and_skipped_next_pass(self):
        # two vertices already in one component: their edge becomes IE
        g = from_edges(3, np.array([0, 1]), np.array([1, 2]),
                       np.array([1.0, 2.0]))
        st = _state(g)
        st.parent[:] = np.array([0, 0, 0])  # all merged already
        st.roots = np.array([0])
        ev = _ev()
        out = run_finding(st, ev)
        assert out.num_candidates == 0
        assert st.ie.sum() > 0  # edges marked intra
        assert ev.get("fm.ie_marks") == st.ie.sum()
        # second pass: flagged edges cost flag checks, no parent lookups
        ev2 = _ev()
        run_finding(st, ev2)
        assert ev2.get("fm.parent_lookups") < ev.get("fm.parent_lookups")

    def test_intra_vertex_detected_and_skipped(self):
        g = from_edges(3, np.array([0, 1]), np.array([1, 2]),
                       np.array([1.0, 2.0]))
        st = _state(g)
        st.parent[:] = 0
        st.roots = np.array([0])
        run_finding(st, _ev())
        assert st.iv.all()  # every vertex became internal
        ev = _ev()
        run_finding(st, ev)
        assert ev.get("fm.tasks") == 0
        assert ev.get("fm.iv_skipped") == 3

    def test_me_p_filter_blocks_worse_candidates(self):
        # vertices 1..4 all in component 0; their finds arrive in id order
        # with increasing weights, so only the first should be forwarded
        g = from_edges(
            6,
            np.array([1, 2, 3, 4]),
            np.array([5, 5, 5, 5]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        st = _state(g, parallelism=1)  # batch width 1: zero-lag filter
        st.parent[:] = np.array([0, 0, 0, 0, 0, 5])
        st.roots = np.array([0, 5])
        ev = _ev()
        run_finding(st, ev)
        # vertex 1 forwards (weight 1); 2..4 are filtered by me_p
        assert ev.get("fm.candidates_forwarded") == ev.get(
            "fm.minedge_writer_reads")
        assert ev.get("fm.candidates_filtered") >= 2

    def test_wide_batches_pass_stale_me_p(self):
        # same scenario at parallelism 4: all four finds share one batch,
        # all pass the stale filter, the network merges them
        g = from_edges(
            6,
            np.array([1, 2, 3, 4]),
            np.array([5, 5, 5, 5]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        st = _state(g, parallelism=4)
        st.parent[:] = np.array([0, 0, 0, 0, 0, 5])
        st.roots = np.array([0, 5])
        ev = _ev()
        run_finding(st, ev)
        assert ev.get("net.conflicts_merged") >= 2

    def test_cache_hits_counted(self):
        st = _state(paper_example(), cache_vertices=6)
        ev = _ev()
        run_finding(st, ev)
        assert ev.get("fm.parent_hits") == ev.get("fm.parent_lookups")
        assert ev.get("mem.fm_parent_blocks") == 0  # fully cached


class TestRapeModule:
    def _after_fm(self, graph, **kw):
        st = _state(graph, **kw)
        ev = _ev()
        run_finding(st, ev)
        return st, ev

    def test_mirror_pair_removed_once(self):
        # two vertices, one edge: both components select it; RAPE must
        # append it exactly once
        g = from_edges(2, np.array([0]), np.array([1]), np.array([5.0]))
        st, ev = self._after_fm(g)
        out = run_rape(st, ev)
        assert out.num_mirrors_removed == 1
        assert out.appended_eids.tolist() == [0]
        assert out.appended_weight == 5.0

    def test_hooked_roots_leave_root_set(self):
        st, ev = self._after_fm(paper_example())
        before = st.roots.size
        out = run_rape(st, ev)
        run_compressing(st, ev, out.hooked_roots)
        assert st.roots.size == before - out.hooked_roots.size

    def test_merged_vs_unmerged_read_counts(self):
        g = paper_example()
        st1, ev1 = self._after_fm(g, merge_rm_am=True)
        run_rape(st1, ev1)
        st2, ev2 = self._after_fm(g, merge_rm_am=False)
        run_rape(st2, ev2)
        # unmerged RM+AM re-reads MinEdge and Parent (3+3 vs 2+2)
        assert ev2.get("rape.minedge_reads") > ev1.get("rape.minedge_reads")
        assert ev2.get("rape.parent_reads") > ev1.get("rape.parent_reads")

    def test_null_minedges_do_no_work(self):
        g = from_edges(3, np.array([0]), np.array([1]), np.array([1.0]))
        st = _state(g)
        # vertex 2 is isolated: it stays in the Root list with a null
        # MinEdge and must not be appended
        ev = _ev()
        run_finding(st, ev)
        out = run_rape(st, ev)
        assert out.appended_eids.size == 1
        assert ev.get("rape.tasks") == 2  # only the two endpoints


class TestCompressingModule:
    def test_root_chain_depth_counted(self):
        g = paper_example()
        st = _state(g)
        # craft a 3-deep hook chain among roots 0 -> 1 -> 2
        st.parent[:] = np.array([1, 2, 2, 3, 4, 5])
        st.roots = np.array([0, 1, 2, 3, 4, 5])
        ev = _ev()
        out = run_compressing(st, ev, np.array([0, 1]))
        assert out.max_root_depth >= 2
        assert st.parent[0] == 2 and st.parent[1] == 2

    def test_leaves_compress_to_root(self):
        g = paper_example()
        st = _state(g)
        st.parent[:] = np.array([0, 0, 1, 3, 3, 4])  # chains
        st.roots = np.array([0, 1, 3, 4])  # 2,5 are leaves
        # hook 1 under 0, 4 under 3
        st.parent[1] = 0
        st.parent[4] = 3
        ev = _ev()
        run_compressing(st, ev, np.array([1, 4]))
        assert (st.parent == np.array([0, 0, 0, 3, 3, 3])).all()

    def test_siv_skips_frozen_leaves(self):
        g = paper_example()
        st = _state(g)
        st.parent[:] = np.array([0, 0, 0, 0, 0, 0])
        st.roots = np.array([0])
        st.iv[np.array([4, 5])] = True
        ev = _ev()
        out = run_compressing(st, ev, np.empty(0, np.int64))
        assert out.num_iv_skipped == 2

    def test_hdv_ldv_split(self):
        g = paper_example()
        st = _state(g, cache_vertices=3)
        st.parent[:] = 0
        st.roots = np.array([0])
        ev = _ev()
        out = run_compressing(st, ev, np.empty(0, np.int64))
        # vertices 1,2 are HDV leaves (< 3); 3,4,5 are LDV leaves
        assert out.num_hdv_leaves == 2
        assert out.num_ldv_leaves == 3

    def test_no_hdc_everything_ldv(self):
        g = paper_example()
        st = _state(g)
        object.__setattr__(st.cfg, "__dict__", st.cfg.__dict__)  # frozen ok
        st2 = SimState.initial(
            st.graph, AmstConfig.baseline(cache_vertices=8).with_(
                parallelism=4, merge_rm_am=True, overlap_fm_cm=True))
        st2.parent[:] = 0
        st2.roots = np.array([0])
        ev = _ev()
        out = run_compressing(st2, ev, np.empty(0, np.int64))
        assert out.num_hdv_leaves == 0
        assert out.num_ldv_leaves == 5
