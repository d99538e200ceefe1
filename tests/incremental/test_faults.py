"""Fault injection: corrupted repair results must be caught, not
silently folded into the forest.

Satellite S3 (fault leg): a replacement-edge search that returns a
non-crossing edge breaks the rooted-forest invariants, and
``check_invariants()`` — the same structural audit ``amst update`` and
the serve ``update`` job run after every batch — must raise rather than
let the corrupted forest masquerade as an MST.
"""

import numpy as np
import pytest

from repro.graph.builders import from_arrays
from repro.incremental import (
    IncrementalConfig,
    IncrementalError,
    IncrementalMst,
    UpdateBatch,
)

NO_FALLBACK = IncrementalConfig(fallback_fraction=1.0)


def tri_graph():
    """0-1 (w=1, forest), 1-2 (w=1, forest), 0-1 (w=9, parallel spare)."""
    return from_arrays(
        3,
        np.array([0, 1, 0], dtype=np.int64),
        np.array([1, 2, 1], dtype=np.int64),
        np.array([1.0, 1.0, 9.0]),
    )


class TestFaultInjection:
    def test_corrupted_replacement_edge_is_caught(self):
        engine = IncrementalMst(tri_graph(), config=NO_FALLBACK)
        assert engine.forest().edge_ids.tolist() == [0, 1]

        real_find = engine._find_replacement

        def corrupted(side, comp0):
            internal, scanned = real_find(side, comp0)
            # lie: hand back the parallel 0-1 edge (internal id 2),
            # which does NOT cross the cut opened by deleting 1-2
            return 2, scanned

        engine._find_replacement = corrupted
        with pytest.raises(IncrementalError):
            engine.apply(UpdateBatch.of(deletes=[1]), verify=True)

    def test_honest_replacement_passes_the_same_audit(self):
        # control: the un-tampered engine sails through the identical
        # delete under the identical verification
        engine = IncrementalMst(tri_graph(), config=NO_FALLBACK)
        stats = engine.apply(UpdateBatch.of(deletes=[1]), verify=True)
        assert stats.disconnections == 1  # no crossing edge exists

    def test_corrupted_forest_mask_is_caught(self):
        engine = IncrementalMst(tri_graph(), config=NO_FALLBACK)
        engine._in_forest.view[2] = True  # claim the spare is in-forest
        with pytest.raises(IncrementalError):
            engine.check_invariants()

    def test_snapshot_restore_validates_fingerprint(self):
        from repro.bench.runcache import RunCache

        g = tri_graph()
        cache = RunCache()
        batch = UpdateBatch.of(inserts=[(0, 2, 0.5)])
        one = IncrementalMst(g, config=NO_FALLBACK, cache=cache)
        one.apply(batch)

        # poison the cached snapshot's state fingerprint
        key = next(k for k in cache._memory if k.startswith("delta:"))
        snapshot = dict(cache._memory[key])
        snapshot["state_fp"] = "0" * 32
        cache._memory[key] = snapshot

        two = IncrementalMst(g, config=NO_FALLBACK, cache=cache)
        with pytest.raises(IncrementalError):
            two.apply(batch)


class TestAuditMutations:
    """Each structural corruption of the rooted forest is a typed error.

    ``tri_graph``'s forest is the path 0-1-2, rooted at vertex 0 with
    ``parent = [0, 0, 1]`` over forest edges ``parent_eid = [-1, 0, 1]``;
    edge 2 is the non-forest spare.
    """

    @staticmethod
    def engine():
        engine = IncrementalMst(tri_graph(), config=NO_FALLBACK)
        assert engine._parent.tolist() == [0, 0, 1]
        assert engine._parent_eid.tolist() == [-1, 0, 1]
        engine.check_invariants()
        return engine

    def test_two_cycle_in_parent(self):
        engine = self.engine()
        engine._parent[0] = 1  # 0 -> 1 -> 0
        with pytest.raises(IncrementalError, match="cycle"):
            engine.check_invariants()

    def test_parent_eid_names_a_non_forest_edge(self):
        engine = self.engine()
        engine._parent_eid[1] = 2  # the spare 0-1 edge, not in the forest
        with pytest.raises(IncrementalError, match="non-forest"):
            engine.check_invariants()

    def test_two_children_share_one_edge(self):
        engine = self.engine()
        engine._parent[2] = 0
        engine._parent_eid[2] = 0  # vertices 1 and 2 both claim edge 0
        with pytest.raises(IncrementalError, match="shares"):
            engine.check_invariants()

    def test_label_differs_from_its_root(self):
        engine = self.engine()
        engine._comp[2] = 7
        with pytest.raises(IncrementalError, match="label"):
            engine.check_invariants()

    @pytest.mark.parametrize("bad", [3, -1])
    def test_parent_out_of_range(self, bad):
        engine = self.engine()
        engine._parent[2] = bad
        with pytest.raises(IncrementalError, match="out of range"):
            engine.check_invariants()
