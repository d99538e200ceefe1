"""The fabric engine: sharded local phase + message-passing merge.

Execution follows the multi-FPGA structure of GraVF-M rather than the
pre-fabric "one process loops over cards" model:

1. **Scatter** (round 0) — the host ships every card its edge shard
   (one :class:`~repro.fabric.messages.ShardScatter` per card).  Shards
   come from a pluggable partitioner (:mod:`repro.fabric.partition`)
   and form an exact partition of the edge set.
2. **Local phase** — per-card worker processes (the
   :mod:`repro.bench.executor` pool over shm-published arrays) each run
   the full AMST simulator on their shard and ship back only their
   modelled report and the edge ids of their local minimum spanning
   forest.
3. **Reduce** (rounds 1..⌈log2 C⌉) — a binomial reduction tree: in each
   round, card ``lo + stride`` ships its surviving forest to card
   ``lo`` (:class:`ForestShard` + :class:`BoundaryEdges` for the records
   straddling a vertex-ownership boundary) and gets a
   :class:`ComponentMerges` acknowledgement back.  Each receiver merges
   the two forests with the repo-wide ``(weight, edge id)`` tie-break;
   the host solves every merge of a round in one batched Borůvka
   (:func:`_round_forests`), so after the last round card 0 holds the
   global forest.  The tree pairs ``(lo, lo + stride)`` for any card
   count — non-powers of two simply leave some cards unpaired in some
   rounds.

Every round's messages are counted and sized; the network model
(:mod:`repro.fabric.netmodel`) turns them into modelled transfer time,
which is attached to the merge run's :class:`~repro.core.perf.PerfReport`.

Correctness is double-checked at runtime: the reduction-tree forest
must equal the forest produced by one authoritative AMST merge run over
the union of local MSFs (the MST-composability path the oracle gates).
A mismatch raises :class:`FabricError` instead of returning silently
wrong data.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.accelerator import Amst, AmstOutput
from ..core.config import AmstConfig
from ..core.perf import PerfReport
from ..graph.csr import CSRGraph
from ..kernels import numpy_impl
from ..mst.result import MSTResult
from ..obs.context import current_telemetry
from .messages import (
    HOST,
    BoundaryEdges,
    ComponentMerges,
    ForestShard,
    ShardScatter,
    SyncRound,
    traffic_summary,
)
from .netmodel import NetProfile, NetworkCostReport, get_net_profile, model_rounds
from .partition import PartitionPlan, plan_edges
from .worker import card_task, edge_subgraph

__all__ = ["FabricError", "FabricRun", "run_fabric"]


class FabricError(RuntimeError):
    """A fabric-level invariant was violated (e.g. merge disagreement)."""


def _round_forests(
    groups: list[np.ndarray],
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    num_vertices: int,
) -> list[np.ndarray]:
    """Minimum spanning forest of every candidate edge-id set at once.

    One Borůvka over the disjoint union of the sets: set ``i``'s vertex
    ``x`` becomes ``i * num_vertices + x`` (then compacted), so no two
    sets share a component.  Edges are ranked once in the repo
    ``(weight, id)`` order; each pass picks every component's
    minimum-rank edge (FM), drops the mirrored half of each mutual pick
    (RAPE), then hooks and compresses with ``resolve_roots`` (CM).
    Ranks are unique, so each set keeps exactly the forest Kruskal
    would.  Returns one sorted edge-id array per set.
    """
    sizes = [g.size for g in groups]
    owner = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
    eids = np.concatenate(groups).astype(np.int64, copy=False)
    order = np.lexsort((eids, w[eids]))
    owner, eids = owner[order], eids[order]  # position == rank
    m = eids.size
    base = owner * num_vertices
    verts, ends = np.unique(np.concatenate([base + u[eids], base + v[eids]]),
                            return_inverse=True)
    a, b = ends[:m], ends[m:]
    comp = np.arange(verts.size, dtype=np.int64)
    kept = np.zeros(m, dtype=bool)
    live = np.flatnonzero(a != b)
    while live.size:
        # FM: the minimum-rank edge leaving each component
        ra, rb = comp[a[live]], comp[b[live]]
        cross = ra != rb
        live, ra, rb = live[cross], ra[cross], rb[cross]
        best = np.full(comp.size, m, dtype=np.int64)
        np.minimum.at(best, ra, live)
        np.minimum.at(best, rb, live)
        roots = np.flatnonzero(best < m)
        pick = best[roots]
        kept[pick] = True
        # RAPE: when both sides picked the same edge, only the larger
        # root hooks; CM: hook, then compress to the new roots
        pa = comp[a[pick]]
        other = np.where(pa == roots, comp[b[pick]], pa)
        hook = (best[other] != pick) | (roots > other)
        comp[roots[hook]] = other[hook]
        comp = numpy_impl.resolve_roots(comp)
    owner, eids = owner[kept], eids[kept]
    order = np.lexsort((eids, owner))
    bounds = np.cumsum(np.bincount(owner, minlength=len(groups)))[:-1]
    return np.split(eids[order], bounds)


def _reduce_rounds(
    msf_eids: tuple[np.ndarray, ...],
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    vertex_card: np.ndarray,
    num_cards: int,
) -> tuple[np.ndarray, tuple[SyncRound, ...]]:
    """Binomial reduction of per-card forests down to card 0.

    Returns ``(global_forest_eids, rounds)``; works for any card count
    (cards without a partner in a round just wait).  All merges of one
    round are solved by a single :func:`_round_forests` call.
    """
    forests = list(msf_eids)
    rounds: list[SyncRound] = []
    stride, level = 1, 0
    while stride < num_cards:
        pairs = [(lo, lo + stride)
                 for lo in range(0, num_cards - stride, 2 * stride)]
        merged = _round_forests(
            [np.concatenate([forests[lo], forests[hi]]) for lo, hi in pairs],
            u, v, w, vertex_card.size)
        messages = []
        for (lo, hi), forest in zip(pairs, merged):
            sender = forests[hi]
            boundary = int((vertex_card[u[sender]]
                            != vertex_card[v[sender]]).sum())
            absorbed = int(np.isin(forest, sender,
                                   assume_unique=True).sum())
            messages.append(ForestShard(
                src=hi, dst=lo, records=int(sender.size) - boundary))
            if boundary:
                messages.append(BoundaryEdges(
                    src=hi, dst=lo, records=boundary))
            messages.append(ComponentMerges(
                src=lo, dst=hi, records=absorbed))
            forests[lo] = forest
        rounds.append(SyncRound(
            index=level + 1, label=f"reduce-{level}",
            messages=tuple(messages)))
        stride *= 2
        level += 1
    return forests[0], tuple(rounds)


@dataclass(frozen=True)
class FabricRun:
    """Everything one fabric execution produced."""

    result: MSTResult
    plan: PartitionPlan
    profile: NetProfile
    local_reports: tuple[PerfReport, ...]  # per card, modelled
    local_forests: tuple[np.ndarray, ...]  # per card, global edge ids
    merge_output: AmstOutput
    forest_eids: np.ndarray  # global edge ids of the final forest
    rounds: tuple[SyncRound, ...]  # scatter + reduce rounds
    network: NetworkCostReport
    boundary_edges: int  # records shipped as BoundaryEdges
    host_phase1_seconds: float

    @property
    def local_seconds(self) -> float:
        return max(r.seconds for r in self.local_reports)

    @property
    def merge_seconds(self) -> float:
        return self.merge_output.report.seconds

    @property
    def modelled_seconds(self) -> float:
        """Local compute + modelled network + merge compute."""
        return (self.local_seconds + self.network.total_seconds
                + self.merge_seconds)

    @property
    def energy_joules(self) -> float:
        """Modelled energy of every card's local run plus the merge run."""
        local = sum(r.energy_joules for r in self.local_reports)
        return local + self.merge_output.report.energy_joules


def run_fabric(
    graph: CSRGraph,
    num_cards: int,
    config: AmstConfig | None = None,
    *,
    partitioner: str = "range",
    net_profile: str = "pcie3",
    jobs: int = 1,
) -> FabricRun:
    """Run the sharded multi-card pipeline over ``graph``.

    The forest is byte-identical to a serial ``Amst(cfg).run(graph)``
    for every partitioner and card count (enforced by tests *and* by
    the runtime reduction-vs-merge cross-check below).  ``jobs > 1``
    fans the per-card local runs across worker processes; results do
    not depend on ``jobs``.
    """
    cfg = config if config is not None else AmstConfig.full()
    profile = get_net_profile(net_profile)
    tel = current_telemetry()

    def phase(name):
        if tel is not None:
            return tel.spans.span(name, category="phase")
        return nullcontext()

    with phase("fabric.partition"):
        u, v, w = graph.edge_endpoints()
        plan = plan_edges(graph.num_vertices, u, v, num_cards,
                          partitioner=partitioner)
        sorted_eids, bounds = plan.shards()
    num_cards = plan.num_cards  # validated int

    scatter = SyncRound(
        index=0, label="scatter",
        messages=tuple(
            ShardScatter(src=HOST, dst=card,
                         records=int(bounds[card + 1] - bounds[card]))
            for card in range(num_cards)
        ),
    )

    # ---- local phase: one worker per card over the published arrays
    from ..bench.executor import TaskSpec, execute
    from ..graph.shm import GraphStore

    t0 = time.perf_counter()
    with phase("fabric.local"):
        use_pool = jobs > 1 and num_cards > 1
        with GraphStore() if use_pool else nullcontext() as store:
            bundle = (
                store.publish(u, v, w, sorted_eids)
                if use_pool else (u, v, w, sorted_eids)
            )
            tasks = [
                TaskSpec(
                    key=f"fabric.card{card}", fn=card_task,
                    kwargs={
                        "bundle": bundle,
                        "start": int(bounds[card]),
                        "stop": int(bounds[card + 1]),
                        "num_vertices": graph.num_vertices,
                        "cfg": cfg,
                        "card": card,
                    },
                )
                for card in range(num_cards)
            ]
            groups = execute(tasks, jobs=jobs if use_pool else 1)
        local_reports, local_forests = zip(*(g[0] for g in groups))
    host_phase1 = time.perf_counter() - t0

    # ---- reduce: binomial message-passing merge of the local forests
    with phase("fabric.reduce"):
        reduced, reduce_rounds = _reduce_rounds(
            local_forests, u, v, w, plan.vertex_card, num_cards)

    # ---- authoritative merge: one AMST run over the union of MSFs
    # (the same composable-edge-set path the oracle verifies), keeping
    # merge-phase compute modelled in simulator cycles
    with phase("fabric.merge"):
        merge_eids = np.unique(np.concatenate(local_forests))
        merge_graph = edge_subgraph(graph.num_vertices, u, v, w,
                                    merge_eids)
        merge_out = Amst(cfg).run(merge_graph)
    final_eids = merge_eids[merge_out.result.edge_ids]

    if not np.array_equal(reduced, final_eids):
        raise FabricError(
            f"reduction-tree forest disagrees with the merge run "
            f"({reduced.size} vs {final_eids.size} edges) — "
            f"partitioner={plan.name!r}, cards={num_cards}"
        )

    rounds = (scatter,) + reduce_rounds
    network = model_rounds(profile, rounds, num_cards)
    boundary_edges = sum(
        m.records
        for rnd in reduce_rounds for m in rnd.messages
        if m.kind == "boundary"
    )
    merge_out.report.attach_network({
        **network.to_dict(),
        "traffic": traffic_summary(rounds),
        "partitioner": plan.name,
        "partition_stats": plan.stats.to_dict(),
    })

    if tel is not None:
        g = tel.metrics
        g.set_gauge("fabric.cards", num_cards)
        g.set_gauge("fabric.rounds", len(rounds))
        g.set_gauge("fabric.messages", network.total_messages)
        g.set_gauge("fabric.bytes", network.total_bytes)
        g.set_gauge("fabric.cut_edges", plan.stats.cut_edges)
        g.set_gauge("fabric.boundary_edges", boundary_edges)

    result = MSTResult(
        edge_ids=final_eids,
        total_weight=float(w[final_eids].sum()),
        num_components=graph.num_vertices - final_eids.size,
        iterations=merge_out.result.iterations,
        extras={
            "num_cards": num_cards,
            "partitioner": plan.name,
            "net_profile": profile.name,
        },
    )
    return FabricRun(
        result=result,
        plan=plan,
        profile=profile,
        local_reports=local_reports,
        local_forests=local_forests,
        merge_output=merge_out,
        forest_eids=final_eids,
        rounds=rounds,
        network=network,
        boundary_edges=int(boundary_edges),
        host_phase1_seconds=host_phase1,
    )
