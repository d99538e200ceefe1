"""Unit tests for the baseline workload kernel."""

import numpy as np
import pytest

from repro.baselines import counted_boruvka
from repro.mst import validate_mst


@pytest.mark.parametrize("filter_intra", [True, False],
                         ids=["mastiff-style", "gunrock-style"])
class TestCorrectness:
    def test_matches_kruskal(self, filter_intra, zoo):
        for name, g in zoo:
            result, _ = counted_boruvka(g, filter_intra=filter_intra)
            validate_mst(g, result), name


class TestCounts:
    def test_filtering_reduces_scans(self, road_graph):
        _, filtered = counted_boruvka(road_graph, filter_intra=True)
        _, flat = counted_boruvka(road_graph, filter_intra=False)
        assert filtered.edges_scanned <= flat.edges_scanned
        assert filtered.iterations == flat.iterations

    def test_counts_populated(self, rmat_graph):
        _, c = counted_boruvka(rmat_graph, filter_intra=True)
        assert c.edges_scanned > 0
        assert c.random_reads > 0
        assert c.atomic_updates > 0
        assert c.compress_ops > 0
        assert c.total_ops == (c.edges_scanned + c.random_reads
                               + c.atomic_updates + c.sequential_ops
                               + c.compress_ops)

    def test_per_iteration_records(self, rmat_graph):
        _, c = counted_boruvka(rmat_graph, filter_intra=False)
        assert len(c.per_iteration) == c.iterations
        assert all(r["edges_scanned"] > 0 for r in c.per_iteration)

    def test_atomics_bounded_by_vertices_per_iteration(self, rmat_graph):
        _, c = counted_boruvka(rmat_graph, filter_intra=False)
        assert c.atomic_updates <= c.iterations * rmat_graph.num_vertices

    def test_empty_graph(self):
        from repro.graph import from_edges

        g = from_edges(3, np.array([], dtype=int), np.array([], dtype=int))
        result, c = counted_boruvka(g, filter_intra=True)
        assert result.num_edges == 0
        assert c.iterations == 0
