"""Unit tests for the disjoint-set union structure."""

import numpy as np
import pytest

from repro.mst import UnionFind, pointer_jump
from repro.mst.union_find import hook_labels


class TestUnionFind:
    def test_initial_state(self):
        dsu = UnionFind(5)
        assert len(dsu) == 5
        assert dsu.num_components == 5
        assert all(dsu.find(i) == i for i in range(5))

    def test_union_merges(self):
        dsu = UnionFind(4)
        assert dsu.union(0, 1)
        assert dsu.connected(0, 1)
        assert dsu.num_components == 3

    def test_union_idempotent(self):
        dsu = UnionFind(4)
        dsu.union(0, 1)
        assert not dsu.union(1, 0)
        assert dsu.num_components == 3

    def test_transitive_connectivity(self):
        dsu = UnionFind(6)
        dsu.union(0, 1)
        dsu.union(1, 2)
        dsu.union(4, 5)
        assert dsu.connected(0, 2)
        assert not dsu.connected(0, 4)
        assert dsu.num_components == 3

    def test_full_merge(self):
        dsu = UnionFind(8)
        for i in range(7):
            dsu.union(i, i + 1)
        assert dsu.num_components == 1
        root = dsu.find(0)
        assert all(dsu.find(i) == root for i in range(8))

    def test_find_many_matches_scalar_find(self):
        rng = np.random.default_rng(0)
        dsu = UnionFind(50)
        for _ in range(40):
            a, b = rng.integers(0, 50, 2)
            dsu.union(int(a), int(b))
        ids = np.arange(50)
        batch = dsu.find_many(ids)
        scalar = np.array([dsu.find(int(i)) for i in ids])
        assert np.array_equal(batch, scalar)

    def test_component_labels_consistent(self):
        # the whole-array labelling partitions like the scalar unions
        a, b = np.array([0, 3, 7]), np.array([9, 4, 3])
        dsu = UnionFind(10)
        for x, y in zip(a.tolist(), b.tolist()):
            dsu.union(x, y)
        labels = hook_labels(10, a, b)
        assert labels.tolist() == [0, 1, 2, 3, 3, 5, 6, 3, 8, 0]
        for x in range(10):
            for y in range(10):
                assert (labels[x] == labels[y]) == dsu.connected(x, y)

    def test_zero_elements(self):
        dsu = UnionFind(0)
        assert len(dsu) == 0
        assert dsu.num_components == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_path_halving_compresses(self):
        dsu = UnionFind(4)
        # force a chain 0 <- 1 <- 2 <- 3 via manual parents
        dsu.parent[:] = [0, 0, 1, 2]
        dsu.find(3)
        # after halving, depth shrinks
        assert dsu.parent[3] in (0, 1)


class TestPointerJump:
    def test_reaches_fixed_point(self):
        parent = np.array([0, 0, 1, 2, 3], dtype=np.int64)
        out = pointer_jump(parent)
        assert (out == 0).all()

    def test_identity_unchanged(self):
        parent = np.arange(6, dtype=np.int64)
        assert np.array_equal(pointer_jump(parent.copy()), parent)

    def test_forest_of_chains(self):
        parent = np.array([0, 0, 1, 3, 3, 4], dtype=np.int64)
        out = pointer_jump(parent)
        assert out.tolist() == [0, 0, 0, 3, 3, 3]

    def test_in_place(self):
        parent = np.array([0, 0, 1], dtype=np.int64)
        out = pointer_jump(parent)
        assert out is parent

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            pointer_jump(np.array([0.0, 1.0]))
