"""Registry unit coverage: content addressing, tombstones, no shm."""

import pytest

from repro.bench.runcache import graph_fingerprint
from repro.graph import rmat
from repro.graph.shm import owned_segments
from repro.serve.protocol import ServeError
from repro.serve.registry import GraphRegistry


@pytest.fixture
def registry():
    before = owned_segments()
    reg = GraphRegistry()
    yield reg
    reg.close()
    # the registry keeps its graphs in-process: no test made a segment
    assert owned_segments() == before


class TestPublish:
    def test_publish_is_content_addressed(self, registry):
        g = rmat(6, 6, rng=1)
        record, reused = registry.publish(g, name="g1")
        assert not reused
        assert record.fingerprint == graph_fingerprint(g)
        assert record.graph is g
        assert len(registry) == 1

    def test_republish_identical_bytes_reuses(self, registry):
        a = rmat(6, 6, rng=1)
        b = rmat(6, 6, rng=1)  # same bytes, different object
        r1, reused1 = registry.publish(a, name="first")
        r2, reused2 = registry.publish(b, name="second")
        assert not reused1 and reused2
        assert r2 is r1
        assert r2.name == "first"  # original record wins
        assert len(registry) == 1

    def test_distinct_graphs_get_distinct_records(self, registry):
        r1, _ = registry.publish(rmat(6, 6, rng=1))
        r2, _ = registry.publish(rmat(6, 6, rng=2))
        assert r1.fingerprint != r2.fingerprint
        assert len(registry) == 2

    def test_view_shape(self, registry):
        g = rmat(5, 5, rng=3)
        record, _ = registry.publish(g, name="demo")
        view = record.view()
        assert view["name"] == "demo"
        assert view["num_vertices"] == g.num_vertices
        assert view["num_edges"] == g.num_edges
        assert view["nbytes"] > 0
        assert view["fingerprint"] == record.fingerprint


class TestLookup:
    def test_get_unknown_is_not_found(self, registry):
        with pytest.raises(ServeError) as info:
            registry.get("deadbeef")
        assert info.value.code == "graph_not_found"
        assert info.value.status == 404

    def test_get_after_evict_is_evicted(self, registry):
        record, _ = registry.publish(rmat(6, 6, rng=1))
        registry.evict(record.fingerprint)
        with pytest.raises(ServeError) as info:
            registry.get(record.fingerprint)
        assert info.value.code == "graph_evicted"
        assert info.value.status == 409

    def test_list_reflects_contents(self, registry):
        registry.publish(rmat(6, 6, rng=1), name="a")
        registry.publish(rmat(6, 6, rng=2), name="b")
        names = sorted(v["name"] for v in registry.list())
        assert names == ["a", "b"]


class TestEviction:
    def test_evict_drops_only_that_graph(self, registry):
        r1, _ = registry.publish(rmat(6, 6, rng=1))
        r2, _ = registry.publish(rmat(6, 6, rng=2))
        view = registry.evict(r1.fingerprint)
        assert view == r1.view()
        assert len(registry) == 1
        assert registry.get(r2.fingerprint) is r2
        assert [v["fingerprint"] for v in registry.list()] == [
            r2.fingerprint]

    def test_evict_twice_reports_evicted(self, registry):
        record, _ = registry.publish(rmat(6, 6, rng=1))
        registry.evict(record.fingerprint)
        with pytest.raises(ServeError) as info:
            registry.evict(record.fingerprint)
        assert info.value.code == "graph_evicted"

    def test_evict_unknown_reports_not_found(self, registry):
        with pytest.raises(ServeError) as info:
            registry.evict("deadbeef")
        assert info.value.code == "graph_not_found"

    def test_republish_clears_tombstone(self, registry):
        g = rmat(6, 6, rng=1)
        record, _ = registry.publish(g)
        registry.evict(record.fingerprint)
        again, reused = registry.publish(g)
        assert not reused
        assert registry.get(record.fingerprint) is again


class TestShutdownHygiene:
    def test_close_evicts_everything(self, registry):
        records = [registry.publish(rmat(6, 6, rng=seed))[0]
                   for seed in (1, 2)]
        registry.close()
        assert len(registry) == 0
        assert registry.list() == []
        # every fingerprint is tombstoned, not forgotten
        for record in records:
            with pytest.raises(ServeError) as info:
                registry.get(record.fingerprint)
            assert info.value.code == "graph_evicted"
