"""Unit tests for the additional graph families."""

import pytest

from repro.graph import barabasi_albert, geometric_graph, watts_strogatz


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert(300, 3, rng=0)
        assert g.num_vertices == 300
        assert g.num_edges <= 3 * (300 - 3)
        assert g.num_edges > 2 * (300 - 3) * 0.8

    def test_power_law_head(self):
        g = barabasi_albert(1000, 2, rng=1)
        deg = g.degrees()
        assert deg.max() > 8 * deg.mean()

    def test_connected(self):
        from repro.mst import kruskal

        g = barabasi_albert(200, 2, rng=2)
        assert kruskal(g).num_components == 1

    def test_deterministic(self):
        assert barabasi_albert(100, 2, rng=5) == barabasi_albert(
            100, 2, rng=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)
        with pytest.raises(ValueError):
            barabasi_albert(3, 5)
        with pytest.raises(ValueError, match="weight kind"):
            barabasi_albert(10, 2, weights="prime")


class TestWattsStrogatz:
    def test_no_rewire_is_ring_lattice(self):
        g = watts_strogatz(50, 4, 0.0, rng=0)
        assert g.num_edges == 100  # n * k / 2
        assert (g.degrees() == 4).all()

    def test_rewire_changes_structure(self):
        a = watts_strogatz(100, 4, 0.0, rng=1)
        b = watts_strogatz(100, 4, 0.9, rng=1)
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            watts_strogatz(20, 3, 0.1)
        with pytest.raises(ValueError, match="exceed"):
            watts_strogatz(4, 4, 0.1)
        with pytest.raises(ValueError, match="probability"):
            watts_strogatz(20, 4, 1.5)


class TestGeometric:
    def test_weights_are_distances(self):
        g = geometric_graph(200, 0.15, rng=0)
        _, _, w = g.edge_endpoints()
        assert (w <= 0.15 + 1e-12).all()
        assert (w >= 0).all()

    def test_larger_radius_more_edges(self):
        small = geometric_graph(300, 0.05, rng=1)
        large = geometric_graph(300, 0.2, rng=1)
        assert large.num_edges > small.num_edges

    def test_torus_wraps(self):
        flat = geometric_graph(300, 0.1, rng=2, torus=False)
        wrap = geometric_graph(300, 0.1, rng=2, torus=True)
        assert wrap.num_edges >= flat.num_edges

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_graph(0, 0.1)
        with pytest.raises(ValueError, match="radius"):
            geometric_graph(10, 0.0)

    def test_mst_on_geometric(self):
        from repro.mst import kruskal, validate_mst

        g = geometric_graph(150, 0.2, rng=3)
        validate_mst(g, kruskal(g))
