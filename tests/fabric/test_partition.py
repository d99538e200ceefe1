"""Partitioner registry: exact edge ownership, stats, validation."""

import numpy as np
import pytest

from repro.fabric import (
    PARTITIONERS,
    get_partitioner,
    list_partitioners,
    plan_edges,
    register_partitioner,
    validate_num_cards,
)
from repro.fabric.partition import _grid_dims, shard_slices
from repro.graph import rmat, road_lattice

ALL = ("range", "hash", "edge-cut", "grid2d")


def _endpoints(g):
    u, v, w = g.edge_endpoints()
    return u, v


class TestValidateNumCards:
    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="num_cards must be >= 1"):
            validate_num_cards(bad)

    @pytest.mark.parametrize("bad", [1.5, 4.0, "4", None, True])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError, match="num_cards must be an integer"):
            validate_num_cards(bad)

    def test_accepts_numpy_integers(self):
        assert validate_num_cards(np.int64(3)) == 3
        assert isinstance(validate_num_cards(np.int64(3)), int)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL) <= set(list_partitioners())

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            get_partitioner("metis")

    def test_register_and_use(self):
        @register_partitioner("all-on-zero", "everything on card 0")
        def _plan(n, u, v, num_cards):
            return (np.zeros(u.size, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), {})

        try:
            g = road_lattice(6, 6, rng=0)
            u, v = _endpoints(g)
            plan = plan_edges(g.num_vertices, u, v, 4,
                              partitioner="all-on-zero")
            assert plan.stats.empty_cards == 3
            assert plan.stats.cut_edges == 0
        finally:
            del PARTITIONERS["all-on-zero"]

    def test_out_of_range_card_id_rejected(self):
        @register_partitioner("broken", "returns card id == num_cards")
        def _plan(n, u, v, num_cards):
            return (np.full(u.size, num_cards, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), {})

        try:
            g = road_lattice(4, 4, rng=0)
            u, v = _endpoints(g)
            with pytest.raises(ValueError, match="out-of-range"):
                plan_edges(g.num_vertices, u, v, 2, partitioner="broken")
        finally:
            del PARTITIONERS["broken"]

    @pytest.mark.parametrize("bad, match", [
        # a short edge_card would drop edges from every shard
        (lambda n, m, c: (np.zeros(m - 5, np.int64), np.zeros(n, np.int64)),
         r"'malformed' returned edge_card of shape \(96,\), expected "
         r"\(101,\)"),
        (lambda n, m, c: (np.zeros((m, 1), np.int64), np.zeros(n, np.int64)),
         r"edge_card of shape \(101, 1\)"),
        (lambda n, m, c: (np.zeros(m, np.int64), np.zeros(3, np.int64)),
         r"'malformed' returned vertex_card of shape \(3,\), expected "
         r"\(64,\)"),
        (lambda n, m, c: (np.zeros(m, np.int64), np.full(n, c, np.int64)),
         "out-of-range card id in vertex_card"),
        (lambda n, m, c: (np.zeros(m, np.int64), np.full(n, -1, np.int64)),
         "out-of-range card id in vertex_card"),
    ], ids=["short-edge-card", "2d-edge-card", "short-vertex-card",
            "vertex-card-past-cards", "negative-vertex-card"])
    def test_malformed_output_rejected(self, bad, match):
        @register_partitioner("malformed", "wrong shape or card ids")
        def _plan(n, u, v, num_cards):
            return (*bad(n, u.size, num_cards), {})

        try:
            g = road_lattice(8, 8, rng=2)
            u, v = _endpoints(g)
            assert (g.num_vertices, g.num_edges) == (64, 101)
            with pytest.raises(ValueError, match=match):
                plan_edges(g.num_vertices, u, v, 2, partitioner="malformed")
        finally:
            del PARTITIONERS["malformed"]


class TestExactPartition:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("cards", [1, 4, 6, 16])
    def test_every_edge_owned_once(self, name, cards):
        g = rmat(7, 8, rng=3)
        u, v = _endpoints(g)
        plan = plan_edges(g.num_vertices, u, v, cards, partitioner=name)
        assert plan.edge_card.shape == (g.num_edges,)
        assert ((plan.edge_card >= 0) & (plan.edge_card < cards)).all()
        sorted_eids, bounds = plan.shards()
        # the shard slices are a disjoint cover of all edge ids
        assert bounds[0] == 0 and bounds[-1] == g.num_edges
        assert np.array_equal(np.sort(sorted_eids),
                              np.arange(g.num_edges))

    @pytest.mark.parametrize("name", ALL)
    def test_stats_consistent(self, name):
        g = road_lattice(12, 12, rng=1)
        u, v = _endpoints(g)
        plan = plan_edges(g.num_vertices, u, v, 4, partitioner=name)
        s = plan.stats
        assert s.num_edges == g.num_edges
        assert 0 <= s.cut_edges <= s.num_edges
        assert 0.0 <= s.cut_fraction <= 1.0
        assert s.balance >= 1.0
        counts = np.bincount(plan.edge_card, minlength=4)
        assert s.max_card_edges == counts.max()
        assert s.empty_cards == (counts == 0).sum()


class TestStrategies:
    def test_range_is_contiguous_vertex_blocks(self):
        g = road_lattice(8, 8, rng=0)
        u, v = _endpoints(g)
        plan = plan_edges(g.num_vertices, u, v, 4, partitioner="range")
        assert (np.diff(plan.vertex_card) >= 0).all()
        assert np.array_equal(plan.edge_card, plan.vertex_card[u])

    def test_edge_cut_balances_lollipop(self):
        # Lollipop: a 16-clique (120 edges) plus a 48-vertex path.
        # Equal-vertex "range" blocks dump the whole clique on card 0;
        # the degree-weighted split moves the boundaries into the
        # clique so every card owns ~m/4 edges.
        k, n = 16, 64
        cu, cv = np.triu_indices(k, k=1)
        pu = np.arange(k - 1, n - 1)
        pv = np.arange(k, n)
        u = np.concatenate([cu, pu]).astype(np.int64)
        v = np.concatenate([cv, pv]).astype(np.int64)
        range_plan = plan_edges(n, u, v, 4, partitioner="range")
        cut_plan = plan_edges(n, u, v, 4, partitioner="edge-cut")
        assert range_plan.stats.balance > 2.0  # clique all on card 0
        assert cut_plan.stats.balance < range_plan.stats.balance
        # ownership follows the lower endpoint, so balance is not
        # perfect — but it is decisively better than the vertex split
        assert cut_plan.stats.balance < 2.0

    def test_grid2d_spreads_hub_edges(self):
        n = 64
        hub_u = np.zeros(n - 1, dtype=np.int64)
        leaves = np.arange(1, n, dtype=np.int64)
        plan = plan_edges(n, hub_u, leaves, 16, partitioner="grid2d")
        # the hub's edges land across a whole grid row, not one card
        assert np.unique(plan.edge_card).size >= 4
        assert plan.meta == {"rows": 4, "cols": 4}

    def test_grid2d_rejects_prime_cards(self):
        g = road_lattice(4, 4, rng=0)
        u, v = _endpoints(g)
        with pytest.raises(ValueError, match="composite card count"):
            plan_edges(g.num_vertices, u, v, 7, partitioner="grid2d")

    def test_grid_dims(self):
        assert _grid_dims(16) == (4, 4)
        assert _grid_dims(64) == (8, 8)
        assert _grid_dims(12) == (3, 4)
        assert _grid_dims(1) == (1, 1)


class TestShardSlices:
    def test_matches_boolean_sweeps(self):
        rng = np.random.default_rng(5)
        edge_card = rng.integers(0, 5, size=200)
        sorted_eids, bounds = shard_slices(edge_card, 5)
        for card in range(5):
            expect = np.flatnonzero(edge_card == card)
            got = sorted_eids[bounds[card]:bounds[card + 1]]
            assert np.array_equal(got, expect)
