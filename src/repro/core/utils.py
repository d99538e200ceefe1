"""Vectorized segment utilities shared by the simulator modules.

The simulator processes per-vertex CSR segments in bulk; these helpers
implement the flattened-segment idioms (gather ranges, first-match within
a segment, distinct counts) without Python-level loops, per the HPC
guide's vectorize-the-inner-loop rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concat_ranges",
    "count_distinct",
    "segment_offsets",
    "segment_first",
]


def count_distinct(ids: np.ndarray, upper: int | None = None) -> int:
    """Number of distinct values in ``ids`` (non-negative integers).

    Sort-free where sizes allow: scatter into a boolean table of size
    ``upper`` and count — O(ids + upper).  When the value space is much
    larger than the input (table allocation would dominate), sorts and
    counts the value changes instead; a plain ``np.unique`` would hash
    the integers (NumPy >= 2.3), several times slower than either.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return 0
    if upper is None:
        upper = int(ids.max()) + 1
    if upper <= max(16 * ids.size, 1 << 16):
        seen = np.zeros(upper, dtype=bool)
        seen[ids] = True
        return int(np.count_nonzero(seen))
    s = np.sort(ids, axis=None)
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], ends[i])`` for all ``i``.

    Empty ranges are allowed and contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have the same shape")
    lens = ends - starts
    if np.any(lens < 0):
        raise ValueError("ends must be >= starts")
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # global arange shifted, per segment, from its output base to its start
    shift = starts - (np.cumsum(lens) - lens)
    return np.repeat(shift, lens) + np.arange(total, dtype=np.int64)


def segment_offsets(lens: np.ndarray) -> np.ndarray:
    """Start offset of each segment in the flattened array (len k+1)."""
    lens = np.asarray(lens, dtype=np.int64)
    out = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out


def segment_first(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Index of the first True in each segment, or segment end if none.

    ``offsets`` is the ``segment_offsets`` array (length ``k + 1``); the
    result has length ``k`` with values in flattened-array coordinates.
    Empty segments yield their own start offset (== end).
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.size
    k = offsets.size - 1
    if offsets[-1] != n:
        raise ValueError("offsets[-1] must equal mask length")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    sentinel = np.where(mask, np.arange(n, dtype=np.int64), np.int64(n))
    lens = np.diff(offsets)
    nonempty = lens > 0
    first = offsets[1:].astype(np.int64).copy()  # default: segment end
    if nonempty.any():
        # reduceat is only valid on non-empty segments
        red = np.minimum.reduceat(sentinel, offsets[:-1][nonempty])
        found = red < n
        # clamp to the owning segment: a sentinel of n means "not found"
        tgt = np.flatnonzero(nonempty)
        first[tgt[found]] = red[found]
    # a "first" beyond the segment end cannot happen: sentinel values are
    # in-segment indices or n, and n was mapped to the segment end above
    return np.minimum(first, offsets[1:])
