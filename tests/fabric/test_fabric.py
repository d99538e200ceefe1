"""Fabric engine: byte-identity, round structure, the card payload,
the runtime cross-check and the CLI front-end."""

import numpy as np
import pytest

from repro.bench import executor
from repro.bench.datasets import default_cache_vertices, load
from repro.cli import main
from repro.core import Amst, AmstConfig, PerfReport
from repro.fabric import FabricError, FabricRun, run_fabric
from repro.fabric import fabric as fabric_engine
from repro.graph import from_edges, rmat, road_lattice
from repro.mst import kruskal, validate_mst

CFG = AmstConfig.full(8, cache_vertices=256)

PARTITIONERS = ("range", "hash", "edge-cut", "grid2d")


def _serial(graph):
    return Amst(CFG).run(graph).result


@pytest.fixture(scope="module")
def lattice():
    return road_lattice(8, 8, rng=2)


@pytest.fixture(scope="module")
def skewed():
    return rmat(6, 8, rng=9)


@pytest.fixture(scope="module")
def disconnected():
    # two components plus isolated vertices
    u = np.array([0, 1, 2, 5, 6])
    v = np.array([1, 2, 3, 6, 7])
    return from_edges(10, u, v, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


class TestByteIdentity:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("cards", [2, 3, 4, 8])
    def test_forest_matches_serial(self, lattice, partitioner, cards):
        if partitioner == "grid2d" and cards in (2, 3):
            pytest.skip("grid2d needs a composite card count")
        run = run_fabric(lattice, cards, CFG, partitioner=partitioner)
        assert np.array_equal(run.result.edge_ids,
                              _serial(lattice).edge_ids)
        validate_mst(lattice, run.result, reference=kruskal(lattice))

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_skewed_graph(self, skewed, partitioner):
        run = run_fabric(skewed, 4, CFG, partitioner=partitioner)
        assert np.array_equal(run.result.edge_ids,
                              _serial(skewed).edge_ids)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_disconnected_graph(self, disconnected, partitioner):
        run = run_fabric(disconnected, 4, CFG, partitioner=partitioner)
        serial = _serial(disconnected)
        assert np.array_equal(run.result.edge_ids, serial.edge_ids)
        assert run.result.num_components == serial.num_components

    def test_single_card(self, lattice):
        run = run_fabric(lattice, 1, CFG)
        assert np.array_equal(run.result.edge_ids,
                              _serial(lattice).edge_ids)
        assert all(r.label == "scatter" for r in run.rounds)

    def test_jobs_parity(self, lattice):
        serial_run = run_fabric(lattice, 4, CFG, partitioner="edge-cut")
        pool_run = run_fabric(lattice, 4, CFG, partitioner="edge-cut",
                              jobs=2)
        assert np.array_equal(serial_run.result.edge_ids,
                              pool_run.result.edge_ids)
        assert (
            [r.total_cycles for r in serial_run.local_reports]
            == [r.total_cycles for r in pool_run.local_reports]
        )
        for a, b in zip(serial_run.local_forests, pool_run.local_forests,
                        strict=True):
            np.testing.assert_array_equal(a, b)
        assert serial_run.network.total_bytes == pool_run.network.total_bytes


class TestCardPayload:
    def test_pooled_card_ships_report_and_forest_only(self, lattice,
                                                      monkeypatch):
        real, received = executor.execute, []

        def spy(tasks, *, jobs=1, **kwargs):
            assert jobs == 2  # the pool path, where results are pickled
            groups = real(tasks, jobs=jobs, **kwargs)
            received.extend(groups)
            return groups

        monkeypatch.setattr(executor, "execute", spy)
        run = run_fabric(lattice, 4, CFG, jobs=2)
        assert len(received) == 4
        for card, group in enumerate(received):
            (payload,) = group
            report, forest = payload
            assert type(report) is PerfReport
            assert type(forest) is np.ndarray
            assert forest.dtype == np.int64 and forest.ndim == 1
            assert run.local_reports[card] is report
            assert run.local_forests[card] is forest


class TestCrossCheck:
    def test_reducer_dropping_an_edge_raises(self, lattice, monkeypatch):
        real = fabric_engine._round_forests
        dropped = []

        def lossy(groups, *args):
            forests = real(groups, *args)
            if not dropped:
                card = next(i for i, f in enumerate(forests) if f.size)
                dropped.append(forests[card][0])
                forests[card] = forests[card][1:]
            return forests

        monkeypatch.setattr(fabric_engine, "_round_forests", lossy)
        with pytest.raises(FabricError, match="disagrees with the merge run"):
            run_fabric(lattice, 4, CFG)
        assert len(dropped) == 1


class TestRoundStructure:
    def test_scatter_plus_log2_reduce(self, lattice):
        run = run_fabric(lattice, 8, CFG)
        assert run.rounds[0].label == "scatter"
        assert [r.label for r in run.rounds[1:]] == [
            "reduce-0", "reduce-1", "reduce-2"]
        assert run.rounds[0].num_messages == 8  # one shard per card

    def test_non_power_of_two_cards(self, lattice):
        run = run_fabric(lattice, 5, CFG)
        # ceil(log2(5)) == 3 reduce rounds; 4 pairings in total
        assert len(run.rounds) == 1 + 3
        forest_msgs = sum(
            1 for rnd in run.rounds for m in rnd.messages
            if m.kind == "forest")
        assert forest_msgs == 4  # C - 1 senders
        assert np.array_equal(run.result.edge_ids,
                              _serial(lattice).edge_ids)

    def test_scatter_records_cover_all_edges(self, lattice):
        run = run_fabric(lattice, 4, CFG)
        assert run.rounds[0].total_records == lattice.num_edges

    def test_every_forest_send_is_acked(self, lattice):
        run = run_fabric(lattice, 8, CFG)
        for rnd in run.rounds[1:]:
            kinds = rnd.count_by_kind()
            assert kinds.get("forest", 0) == kinds.get("merge", 0)

    def test_boundary_edges_counted(self, lattice):
        run = run_fabric(lattice, 8, CFG, partitioner="hash")
        # hash partitioning cuts most lattice edges, so some surviving
        # forest records must straddle an ownership boundary
        assert run.boundary_edges > 0
        by_kind = {}
        for rnd in run.rounds[1:]:
            for m in rnd.messages:
                by_kind[m.kind] = by_kind.get(m.kind, 0) + m.records
        assert by_kind.get("boundary", 0) == run.boundary_edges


class TestNetworkAttachment:
    def test_perf_report_carries_network(self, lattice):
        run = run_fabric(lattice, 4, CFG, net_profile="aurora")
        perf = run.merge_output.report
        net = perf.extra["network"]
        assert net["profile"] == "aurora"
        assert perf.network_seconds == pytest.approx(net["total_seconds"])
        assert perf.seconds_with_network > perf.seconds
        assert net["partition_stats"]["num_edges"] == lattice.num_edges

    def test_modelled_seconds_composition(self, lattice):
        run = run_fabric(lattice, 4, CFG)
        assert run.modelled_seconds == pytest.approx(
            run.local_seconds + run.network.total_seconds
            + run.merge_seconds)

    @pytest.mark.parametrize("profile", ["pcie3", "pcie4", "eth100g",
                                         "aurora", "aurora2d"])
    def test_all_profiles_run(self, lattice, profile):
        run = run_fabric(lattice, 4, CFG, net_profile=profile)
        assert isinstance(run, FabricRun)
        assert run.network.total_seconds > 0

    def test_unknown_profile_rejected(self, lattice):
        with pytest.raises(ValueError, match="unknown net profile"):
            run_fabric(lattice, 4, CFG, net_profile="carrier-pigeon")


class TestScaleOutWrapper:
    """``amst scaleout``: the CLI front-end that wraps ``run_fabric``."""

    SCALE = 0.05

    def _cli(self, capsys, *args):
        assert main(["scaleout", "--dataset", "EF", "--scale",
                     str(self.SCALE), "--parallelism", "8", *args]) == 0
        return capsys.readouterr().out

    def _fabric(self, cards, **kwargs):
        g = load("EF", seed=0, size=self.SCALE)
        cfg = AmstConfig.full(
            8, cache_vertices=default_cache_vertices(self.SCALE))
        return run_fabric(g, cards, cfg, **kwargs)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_wrapper_forest_identity(self, capsys, partitioner):
        out = self._cli(capsys, "--cards", "4",
                        "--partitioner", partitioner, "--validate")
        assert f"cards        : 4 ({partitioner} partition, jobs=1)" in out
        assert "validation   : forest matches Kruskal" in out

    def test_report_fabric_fields(self, capsys):
        out = self._cli(capsys, "--cards", "4", "--partitioner",
                        "edge-cut", "--net-profile", "eth100g")
        run = self._fabric(4, partitioner="edge-cut", net_profile="eth100g")
        net, stats = run.network, run.plan.stats
        assert len(run.rounds) == 3  # scatter + 2 reduce
        assert net.reduce_seconds > 0 and net.scatter_seconds > 0
        for line in (
            f"forest       : {run.result.num_edges:,} edges",
            f"cut edges    : {stats.cut_edges:,} "
            f"({100 * stats.cut_fraction:.1f}% of edges)",
            f"fabric       : 3 round(s), {net.total_messages:,} "
            f"message(s), {net.total_bytes:,} bytes, "
            f"{run.boundary_edges:,} boundary record(s)",
            f"network      : eth100g — scatter "
            f"{net.scatter_seconds * 1e3:.3f} ms, reduce "
            f"{net.reduce_seconds * 1e3:.3f} ms",
            f"modelled time: local {run.local_seconds * 1e3:.3f} ms + "
            f"exchange {net.reduce_seconds * 1e3:.3f} ms + "
            f"merge {run.merge_seconds * 1e3:.3f} ms",
            f"energy       : {run.energy_joules * 1e3:.3f} mJ",
        ):
            assert line in out

    def test_single_card_degenerate(self, capsys):
        out = self._cli(capsys, "--cards", "1")
        assert "cut edges    : 0 (0.0% of edges)" in out
        assert "fabric       : 1 round(s)" in out  # the scatter only
        assert "reduce 0.000 ms" in out


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -2])
    def test_bad_card_counts(self, lattice, bad):
        with pytest.raises(ValueError, match="num_cards must be >= 1"):
            run_fabric(lattice, bad, CFG)

    @pytest.mark.parametrize("bad", [2.0, "4"])
    def test_non_integer_card_counts(self, lattice, bad):
        with pytest.raises(TypeError, match="num_cards must be an integer"):
            run_fabric(lattice, bad, CFG)

    def test_unknown_partitioner(self, lattice):
        with pytest.raises(ValueError, match="unknown partitioner"):
            run_fabric(lattice, 4, CFG, partitioner="metis")
