"""Unit tests for connected-component utilities."""

import numpy as np

from repro.graph import (
    component_sizes,
    connected_components,
    from_edges,
    is_connected,
    path_graph,
    road_lattice,
    to_networkx,
)


class TestConnectedComponents:
    def test_path_is_one_component(self):
        labels = connected_components(path_graph(10))
        assert np.unique(labels).size == 1

    def test_label_is_minimum_id(self):
        labels = connected_components(path_graph(5))
        assert (labels == 0).all()

    def test_forest(self, forest_graph):
        labels = connected_components(forest_graph)
        assert np.unique(labels).size == 3
        assert labels[0] == labels[2]
        assert labels[3] == labels[5]
        assert labels[6] == 6  # isolated

    def test_matches_networkx(self, zoo):
        import networkx as nx

        for name, g in zoo:
            labels = connected_components(g)
            expected = nx.number_connected_components(to_networkx(g))
            assert np.unique(labels).size == expected, name

    def test_matches_networkx_on_road(self):
        import networkx as nx

        g = road_lattice(20, 20, drop_prob=0.3, rng=1)
        labels = connected_components(g)
        assert np.unique(labels).size == nx.number_connected_components(
            to_networkx(g))

    def test_empty_graph(self):
        g = from_edges(4, np.array([], dtype=int), np.array([], dtype=int))
        assert np.array_equal(connected_components(g), np.arange(4))


class TestDerived:
    def test_component_sizes_descending(self):
        sizes = component_sizes(road_lattice(15, 15, drop_prob=0.3, rng=2))
        assert (np.diff(sizes) <= 0).all()
        assert sizes.sum() == 225

    def test_is_connected(self):
        assert is_connected(path_graph(6))
        assert not is_connected(
            from_edges(3, np.array([0]), np.array([1]), np.array([1.0])))

    def test_trivial_graphs_connected(self):
        assert is_connected(from_edges(1, np.array([], dtype=int),
                                       np.array([], dtype=int)))
        assert is_connected(from_edges(0, np.array([], dtype=int),
                                       np.array([], dtype=int)))
