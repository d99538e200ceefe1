"""Unit tests for the vectorized segment utilities."""

import numpy as np
import pytest

from repro.core.utils import (
    concat_ranges,
    count_distinct,
    segment_first,
    segment_offsets,
)


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([0, 5]), np.array([3, 7]))
        assert out.tolist() == [0, 1, 2, 5, 6]

    def test_empty_segments_skipped(self):
        out = concat_ranges(np.array([2, 4, 4]), np.array([2, 6, 4]))
        assert out.tolist() == [4, 5]

    def test_all_empty(self):
        assert concat_ranges(np.array([1, 2]), np.array([1, 2])).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= starts"):
            concat_ranges(np.array([3]), np.array([1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            concat_ranges(np.array([0]), np.array([1, 2]))

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 50, 20)
        ends = starts + rng.integers(0, 10, 20)
        naive = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends)]
        ) if (ends > starts).any() else np.empty(0)
        assert np.array_equal(concat_ranges(starts, ends), naive)


class TestSegmentOffsets:
    def test_basic(self):
        assert segment_offsets(np.array([2, 0, 3])).tolist() == [0, 2, 2, 5]

    def test_empty(self):
        assert segment_offsets(np.array([], dtype=int)).tolist() == [0]


class TestSegmentFirst:
    def test_basic(self):
        mask = np.array([False, True, True, False, False, True])
        offsets = np.array([0, 3, 6])
        assert segment_first(mask, offsets).tolist() == [1, 5]

    def test_not_found_returns_segment_end(self):
        mask = np.array([False, False, True])
        offsets = np.array([0, 2, 3])
        assert segment_first(mask, offsets).tolist() == [2, 2]

    def test_empty_segment(self):
        mask = np.array([True])
        offsets = np.array([0, 0, 1])
        assert segment_first(mask, offsets).tolist() == [0, 0]

    def test_no_segments(self):
        assert segment_first(np.array([], dtype=bool),
                             np.array([0])).size == 0

    def test_offsets_must_cover_mask(self):
        with pytest.raises(ValueError):
            segment_first(np.array([True, False]), np.array([0, 1]))

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        lens = rng.integers(0, 6, 30)
        offsets = segment_offsets(lens)
        mask = rng.random(int(lens.sum())) < 0.3
        got = segment_first(mask, offsets)
        for i in range(30):
            s, e = offsets[i], offsets[i + 1]
            hits = np.flatnonzero(mask[s:e])
            expect = s + hits[0] if hits.size else e
            assert got[i] == expect, i


class TestCountDistinct:
    def test_table_branch(self):
        ids = np.array([3, 1, 3, 0, 1])
        assert count_distinct(ids) == 3
        assert count_distinct(ids, upper=4) == 3

    def test_sort_branch_far_above_the_table_bound(self):
        # upper far above 16 * ids.size (and 2**16): counted by a sort
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 2**40, 500)
        ids[::3] = ids[1]
        upper = 2**40
        assert upper > 16 * ids.size
        assert count_distinct(ids, upper) == len(set(ids.tolist()))
        assert count_distinct(ids) == len(set(ids.tolist()))

    def test_empty(self):
        assert count_distinct(np.array([], dtype=np.int64), 2**40) == 0
