"""Pluggable edge partitioners for the multi-card fabric.

A partitioner assigns **every undirected edge to exactly one card** (and
every vertex to an owning card, used for boundary accounting).  This is
the invariant the whole fabric rides on: shards form an exact partition
of the edge set, so the union of per-card shards reconstructs the input
CSR byte-for-byte and the union of per-card minimum spanning forests
contains the global forest (MST composability) — no special-cased "cut
edge" side channel is needed for correctness.  Cut quality only affects
*communication*: edges whose endpoints are owned by different cards put
boundary records on the wire during the merge reduction.

Three strategies ship (see docs/SCALE_OUT.md for the comparison
methodology, following the edge-cut / 2-D taxonomy of Baer et al. and
the per-node sharding of GraVF-M):

``range``
    The original vertex-range block split: contiguous vertex ids per
    card, edge owned by the card of its lower endpoint.  Preserves the
    degree-sorted HDV prefix per card; edge balance tracks the degree
    distribution, so skew hurts.
``edge-cut``
    Degree-weighted contiguous ranges: vertex boundaries are placed on
    the cumulative-degree curve so every card owns ~``m / cards`` edges.
    Same locality as ``range`` (low cut on ordered meshes), much better
    balance on skewed graphs.
``grid2d``
    2-D partitioning of the adjacency matrix: cards form an ``r x c``
    grid, edge ``(u, v)`` goes to card ``(row_block(u), col_block(v))``.
    Balance no longer depends on any single vertex's degree (a hub's
    edges spread over a whole grid row), at the price of replicating
    vertices across cards.  Requires a composite card count.

Registering a new strategy::

    @register_partitioner("my-strategy", "one-line summary")
    def _my_plan(num_vertices, u, v, num_cards):
        ...
        return edge_card, vertex_card, {"detail": ...}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.utils import count_distinct
from ..graph.csr import stable_argsort

__all__ = [
    "PartitionPlan",
    "PartitionStats",
    "PARTITIONERS",
    "get_partitioner",
    "list_partitioners",
    "partition_vertices",
    "plan_edges",
    "register_partitioner",
    "shard_slices",
    "validate_num_cards",
]


def validate_num_cards(num_cards) -> int:
    """Validate a card count: an integer ``>= 1``.

    Raises ``TypeError``/``ValueError`` with an explicit message instead
    of letting a bad count fall through to numpy broadcasting (where
    ``num_cards=0`` used to surface as an opaque bincount error and a
    float count silently truncated).
    """
    if isinstance(num_cards, bool) or not isinstance(
        num_cards, (int, np.integer)
    ):
        raise TypeError(
            f"num_cards must be an integer, got "
            f"{type(num_cards).__name__} ({num_cards!r})"
        )
    if num_cards < 1:
        raise ValueError(f"num_cards must be >= 1, got {int(num_cards)}")
    return int(num_cards)


def partition_vertices(
    num_vertices: int, num_cards: int, *, strategy: str = "block"
) -> np.ndarray:
    """Card id per vertex.

    ``"block"`` keeps id ranges contiguous (preserves the degree-sorted
    HDV prefix per card); ``"hash"`` scatters ids (better edge balance on
    skewed graphs, worse cache locality).

    When ``num_cards > num_vertices`` the partition is computed over the
    clamped card count ``min(num_cards, num_vertices)`` — each vertex
    gets its own card and the trailing cards own no vertices (their
    phase-1 runs see empty subgraphs).  Returned ids always satisfy
    ``0 <= id < num_cards``.
    """
    num_cards = validate_num_cards(num_cards)
    ids = np.arange(num_vertices, dtype=np.int64)
    # Clamp: more cards than vertices degenerates to one vertex per
    # card; without the clamp "block" would compute per == 1 anyway but
    # the intent (trailing cards stay empty, ids stay in range) is now
    # explicit and documented rather than incidental.
    effective = min(num_cards, max(num_vertices, 1))
    if strategy == "block":
        per = -(-num_vertices // effective)
        return np.minimum(ids // max(per, 1), num_cards - 1)
    if strategy == "hash":
        return ids % effective
    raise ValueError(f"unknown partition strategy {strategy!r}")


def shard_slices(
    edge_card: np.ndarray, num_cards: int
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize every card's edge shard in one scan.

    Returns ``(sorted_eids, bounds)``: all edge ids sorted by owning
    card (ascending within each card — the stable sort preserves id
    order), and ``int64[num_cards + 1]`` slice bounds such that card
    ``c`` owns ``sorted_eids[bounds[c]:bounds[c + 1]]``.  One
    sort + bincount pass instead of ``num_cards`` boolean sweeps.
    """
    order = stable_argsort(edge_card)
    sorted_eids = np.arange(edge_card.size, dtype=np.int64)[order]
    counts = np.bincount(edge_card, minlength=num_cards)
    bounds = np.zeros(num_cards + 1, dtype=np.int64)
    np.cumsum(counts[:num_cards], out=bounds[1:])
    return sorted_eids, bounds


@dataclass(frozen=True)
class PartitionStats:
    """Cut-quality figures of one plan (the sweep's comparison axes)."""

    num_cards: int
    num_edges: int
    cut_edges: int  # endpoints owned by different cards
    max_card_edges: int
    empty_cards: int
    vertex_replication: float  # avg #cards touching a non-isolated vertex

    @property
    def cut_fraction(self) -> float:
        return self.cut_edges / self.num_edges if self.num_edges else 0.0

    @property
    def mean_card_edges(self) -> float:
        return self.num_edges / self.num_cards

    @property
    def balance(self) -> float:
        """Max/mean edges per card; 1.0 is perfect, higher is worse."""
        mean = self.mean_card_edges
        return self.max_card_edges / mean if mean > 0 else 1.0

    def to_dict(self) -> dict:
        return {
            "num_cards": self.num_cards,
            "num_edges": self.num_edges,
            "cut_edges": self.cut_edges,
            "cut_fraction": self.cut_fraction,
            "max_card_edges": self.max_card_edges,
            "mean_card_edges": self.mean_card_edges,
            "balance": self.balance,
            "empty_cards": self.empty_cards,
            "vertex_replication": self.vertex_replication,
        }


@dataclass(frozen=True)
class PartitionPlan:
    """One partitioner's full output for one ``(graph, num_cards)``."""

    name: str
    num_cards: int
    edge_card: np.ndarray  # int64[m], owning card per undirected edge
    vertex_card: np.ndarray  # int64[n], owning card per vertex
    stats: PartitionStats
    meta: dict = field(default_factory=dict)  # e.g. grid2d's (rows, cols)

    def shards(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_eids, bounds)`` — see :func:`shard_slices`."""
        return shard_slices(self.edge_card, self.num_cards)


#: name -> partitioner callable ``fn(n, u, v, num_cards)``
PARTITIONERS: dict[str, Callable] = {}


def register_partitioner(name: str, summary: str):
    """Class/function decorator adding a strategy to the registry."""

    def deco(fn):
        fn.partitioner_name = name
        fn.summary = summary
        PARTITIONERS[name] = fn
        return fn

    return deco


def get_partitioner(name: str) -> Callable:
    try:
        return PARTITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {name!r}; available: "
            f"{', '.join(sorted(PARTITIONERS))}"
        ) from None


def list_partitioners() -> tuple[str, ...]:
    return tuple(sorted(PARTITIONERS))


def _compute_stats(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    edge_card: np.ndarray,
    vertex_card: np.ndarray,
    num_cards: int,
) -> PartitionStats:
    m = int(u.size)
    counts = np.bincount(edge_card, minlength=num_cards)
    cut = int((vertex_card[u] != vertex_card[v]).sum()) if m else 0
    # replication: distinct (vertex, card) incidences per touched vertex
    if m:
        pairs = count_distinct(np.concatenate([
            u * num_cards + edge_card, v * num_cards + edge_card,
        ]), num_vertices * num_cards)
        touched = count_distinct(np.concatenate([u, v]), num_vertices)
        replication = pairs / touched
    else:
        replication = 0.0
    return PartitionStats(
        num_cards=num_cards,
        num_edges=m,
        cut_edges=cut,
        max_card_edges=int(counts.max()) if num_cards else 0,
        empty_cards=int((counts[:num_cards] == 0).sum()),
        vertex_replication=float(replication),
    )


def plan_edges(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    num_cards: int,
    *,
    partitioner: str = "range",
) -> PartitionPlan:
    """Run the named partitioner over a canonical edge list.

    ``u``/``v`` are the per-undirected-edge endpoint arrays from
    :meth:`~repro.graph.csr.CSRGraph.edge_endpoints` (``u <= v``).
    The partitioner must return one card id per edge and one per
    vertex, each in ``[0, num_cards)``; anything else raises
    ``ValueError`` naming it, since a short ``edge_card`` would drop
    edges from every shard without the forest cross-check noticing.
    """
    num_cards = validate_num_cards(num_cards)
    fn = get_partitioner(partitioner)
    edge_card, vertex_card, meta = fn(num_vertices, u, v, num_cards)
    edge_card = np.asarray(edge_card, dtype=np.int64)
    vertex_card = np.asarray(vertex_card, dtype=np.int64)
    for name, cards, size in (("edge_card", edge_card, u.size),
                              ("vertex_card", vertex_card, num_vertices)):
        if cards.shape != (size,):
            raise ValueError(
                f"partitioner {partitioner!r} returned {name} of shape "
                f"{cards.shape}, expected ({size},)"
            )
        if size and (cards.min() < 0 or cards.max() >= num_cards):
            raise ValueError(
                f"partitioner {partitioner!r} produced an out-of-range "
                f"card id in {name}"
            )
    return PartitionPlan(
        name=partitioner,
        num_cards=num_cards,
        edge_card=edge_card,
        vertex_card=vertex_card,
        stats=_compute_stats(
            num_vertices, u, v, edge_card, vertex_card, num_cards),
        meta=meta,
    )


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
@register_partitioner("range", "contiguous vertex-id blocks (the "
                               "original split); edge owned by its "
                               "lower endpoint's card")
def _range_plan(num_vertices, u, v, num_cards):
    vertex_card = partition_vertices(num_vertices, num_cards,
                                     strategy="block")
    return vertex_card[u], vertex_card, {}


@register_partitioner("hash", "vertex id modulo cards; even vertex "
                              "balance, locality-oblivious (high cut)")
def _hash_plan(num_vertices, u, v, num_cards):
    vertex_card = partition_vertices(num_vertices, num_cards,
                                     strategy="hash")
    return vertex_card[u], vertex_card, {}


@register_partitioner("edge-cut", "degree-weighted contiguous ranges: "
                                  "boundaries placed on the cumulative-"
                                  "degree curve for ~m/cards edges each")
def _edge_cut_plan(num_vertices, u, v, num_cards):
    deg = (np.bincount(u, minlength=num_vertices)
           + np.bincount(v, minlength=num_vertices))
    total = int(deg.sum())
    if total == 0:
        vertex_card = np.zeros(num_vertices, dtype=np.int64)
    else:
        before = np.cumsum(deg) - deg  # degree mass strictly left of v
        vertex_card = np.minimum(
            before * num_cards // total, num_cards - 1).astype(np.int64)
    return vertex_card[u], vertex_card, {}


def _grid_dims(num_cards: int) -> tuple[int, int]:
    """Largest ``r x c`` factorization with ``r <= c`` (r maximal)."""
    r = int(np.sqrt(num_cards))
    while r > 1 and num_cards % r:
        r -= 1
    return r, num_cards // r


@register_partitioner("grid2d", "2-D adjacency-matrix grid: edge (u,v) "
                                "-> card (row_block(u), col_block(v)); "
                                "needs a composite card count")
def _grid2d_plan(num_vertices, u, v, num_cards):
    rows, cols = _grid_dims(num_cards)
    if num_cards > 1 and rows == 1:
        raise ValueError(
            f"grid2d requires a composite card count (an r x c grid "
            f"with r, c >= 2); got the prime {num_cards}.  Use e.g. "
            f"4/16/64/256 cards, or the 'range'/'edge-cut' partitioner."
        )
    row_of = partition_vertices(num_vertices, rows, strategy="block")
    col_of = partition_vertices(num_vertices, cols, strategy="block")
    edge_card = row_of[u] * cols + col_of[v]
    # Vertex ownership (for boundary accounting): the grid cell a
    # vertex's self-loop would land in — the diagonal-ish card
    # (row_block(v), col_block(v)).
    vertex_card = row_of * cols + col_of
    return edge_card, vertex_card, {"rows": int(rows), "cols": int(cols)}
