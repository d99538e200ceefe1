"""Property-based tests (hypothesis) for the partitioner registry and
the reduction tree.

The invariants the fabric rides on, checked over random graphs:

1. every undirected edge is assigned to exactly one card;
2. the union of per-card shards reconstructs the input CSR
   byte-for-byte (rebuild from the concatenated shards and compare
   every CSR array);
3. the MST forest is byte-identical across card counts for all
   partitioners;
4. the batched per-round reducer keeps, for every candidate set, the
   forest Kruskal keeps, and a fixed lattice's reduce rounds send the
   pinned message records.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Amst, AmstConfig
from repro.fabric import plan_edges, run_fabric
from repro.fabric.fabric import _round_forests
from repro.graph import from_edges, road_lattice
from repro.graph.builders import from_arrays
from repro.mst import kruskal

CFG = AmstConfig.full(4, cache_vertices=64)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PARTITIONERS = ("range", "hash", "edge-cut", "grid2d")


@st.composite
def random_graphs(draw, max_n=20, max_m=48):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    u = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = list(np.random.default_rng(draw(st.integers(0, 99)))
             .permutation(m) + 1.0)
    return from_edges(n, np.array(u, int), np.array(v, int),
                      np.array(w, float))


@st.composite
def graph_and_cards(draw):
    g = draw(random_graphs())
    cards = draw(st.sampled_from([1, 2, 3, 4, 6, 9]))
    name = draw(st.sampled_from(PARTITIONERS))
    if name == "grid2d" and cards in (2, 3):
        cards = 4  # grid2d needs a composite count
    return g, cards, name


class TestExactEdgePartition:
    @SLOW
    @given(graph_and_cards())
    def test_every_edge_owned_exactly_once(self, gc):
        g, cards, name = gc
        u, v, _ = g.edge_endpoints()
        plan = plan_edges(g.num_vertices, u, v, cards, partitioner=name)
        assert plan.edge_card.shape == (g.num_edges,)
        assert ((plan.edge_card >= 0) & (plan.edge_card < cards)).all()
        sorted_eids, bounds = plan.shards()
        # shard slices are disjoint and cover every edge id exactly once
        assert bounds[-1] == g.num_edges
        assert np.array_equal(np.sort(sorted_eids),
                              np.arange(g.num_edges))
        counts = np.bincount(plan.edge_card, minlength=cards)
        assert np.array_equal(np.diff(bounds), counts[:cards])


class TestShardUnionReconstructsCsr:
    @SLOW
    @given(graph_and_cards())
    def test_rebuild_byte_for_byte(self, gc):
        g, cards, name = gc
        u, v, w = g.edge_endpoints()
        plan = plan_edges(g.num_vertices, u, v, cards, partitioner=name)
        sorted_eids, bounds = plan.shards()
        # gather every card's shard, reorder by global edge id, rebuild
        union = np.concatenate([
            sorted_eids[bounds[c]:bounds[c + 1]] for c in range(cards)
        ]) if cards else np.empty(0, np.int64)
        union = np.sort(union)
        rebuilt = from_arrays(g.num_vertices, u[union], v[union], w[union])
        assert np.array_equal(rebuilt.indptr, g.indptr)
        assert np.array_equal(rebuilt.dst, g.dst)
        assert np.array_equal(rebuilt.weight, g.weight)
        assert np.array_equal(rebuilt.eid, g.eid)


class TestForestIdentityAcrossCards:
    @SLOW
    @given(random_graphs(), st.sampled_from(PARTITIONERS))
    def test_byte_identical_forests(self, g, name):
        serial = Amst(CFG).run(g).result
        cards_list = (4, 6) if name == "grid2d" else (2, 3, 4, 6)
        for cards in cards_list:
            run = run_fabric(g, cards, CFG, partitioner=name)
            assert np.array_equal(run.result.edge_ids, serial.edge_ids)
            assert run.result.total_weight == serial.total_weight


def _kruskal_forest(n, u, v, w, eids):
    """Reference: Kruskal over one candidate set, as global edge ids."""
    keep = np.sort(np.asarray(eids, dtype=np.int64))
    sub = from_arrays(n, u[keep], v[keep], w[keep])
    return np.sort(keep[kruskal(sub).edge_ids])


@st.composite
def candidate_sets(draw, max_n=12, max_m=40, max_sets=4):
    """A multigraph edge list plus disjoint candidate id sets over it.

    Weights come from three values (many duplicates), endpoints from
    few vertices (parallel edges and self-loops are common), and an
    edge may land in no set, so some sets are empty.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    u, v = np.array(draw(ends), np.int64), np.array(draw(ends), np.int64)
    w = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                               min_size=m, max_size=m)), np.float64)
    k = draw(st.integers(1, max_sets))
    owner = np.array(draw(st.lists(st.integers(0, k), min_size=m,
                                   max_size=m)), np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    groups = [rng.permutation(np.flatnonzero(owner == i)) for i in range(k)]
    return n, u, v, w, groups


#: one fixed case on top of the drawn ones: equal-weight parallel edges
#: (ids 0/1 and 4/5), self-loops (2, 6), a tied triangle (0, 3, 4), an
#: empty set, and a set that reuses ids of another
FIXED_CASE = (
    4,
    np.array([0, 0, 1, 1, 2, 0, 3]),
    np.array([1, 1, 1, 2, 0, 2, 3]),
    np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.5]),
    [np.array([1, 0, 2, 5, 4, 3]), np.array([], np.int64), np.array([6]),
     np.array([4, 1])],
)


class TestRoundForests:
    @settings(max_examples=200, deadline=None)
    @example(FIXED_CASE)
    @given(candidate_sets())
    def test_each_set_matches_kruskal(self, case):
        n, u, v, w, groups = case
        forests = _round_forests(groups, u, v, w, n)
        assert len(forests) == len(groups)
        for eids, forest in zip(groups, forests, strict=True):
            assert forest.dtype == np.int64
            np.testing.assert_array_equal(
                forest, _kruskal_forest(n, u, v, w, eids))


#: per reduce round, ``(kind, src, dst, records)`` of every message of a
#: range-partitioned ``road_lattice(8, 8, rng=2)``, as the per-pair
#: Kruskal reducer produced them
PINNED_MESSAGES = {
    5: [
        [("forest", 1, 0, 10), ("boundary", 1, 0, 9), ("merge", 0, 1, 19),
         ("forest", 3, 2, 11), ("boundary", 3, 2, 8), ("merge", 2, 3, 18)],
        [("forest", 2, 0, 19), ("boundary", 2, 0, 13), ("merge", 0, 2, 30)],
        [("forest", 4, 0, 10), ("merge", 0, 4, 6)],
    ],
    8: [
        [("forest", 1, 0, 6), ("boundary", 1, 0, 6), ("merge", 0, 1, 11),
         ("forest", 3, 2, 6), ("boundary", 3, 2, 6), ("merge", 2, 3, 10),
         ("forest", 5, 4, 7), ("boundary", 5, 4, 7), ("merge", 4, 5, 13),
         ("forest", 7, 6, 6), ("merge", 6, 7, 4)],
        [("forest", 2, 0, 7), ("boundary", 2, 0, 13), ("merge", 0, 2, 19),
         ("forest", 6, 4, 10), ("boundary", 6, 4, 5), ("merge", 4, 6, 12)],
        [("forest", 4, 0, 15), ("boundary", 4, 0, 16), ("merge", 0, 4, 29)],
    ],
}


class TestPinnedReduceMessages:
    @pytest.mark.parametrize("cards", sorted(PINNED_MESSAGES))
    def test_round_messages_unchanged(self, cards):
        run = run_fabric(road_lattice(8, 8, rng=2), cards, CFG)
        got = [[(m.kind, m.src, m.dst, m.records) for m in rnd.messages]
               for rnd in run.rounds[1:]]
        assert got == PINNED_MESSAGES[cards]
