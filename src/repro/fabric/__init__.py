"""repro.fabric — sharded multi-card simulation as a message-passing system.

Per-card worker processes over shm-published edge shards, typed
inter-card messages grouped into synchronization rounds, an explicit
network model (bandwidth/latency/topology → modelled transfer time),
and a pluggable partitioner registry.  :func:`run_fabric` is the one
multi-card entry point; ``amst scaleout`` runs on top of it.  See
docs/SCALE_OUT.md.
"""

from .fabric import FabricError, FabricRun, run_fabric
from .messages import (
    BoundaryEdges,
    ComponentMerges,
    ForestShard,
    Message,
    ShardScatter,
    SyncRound,
    traffic_summary,
)
from .netmodel import (
    NET_PROFILES,
    NetProfile,
    NetworkCostReport,
    get_net_profile,
    list_net_profiles,
    model_rounds,
)
from .partition import (
    PARTITIONERS,
    PartitionPlan,
    PartitionStats,
    get_partitioner,
    list_partitioners,
    partition_vertices,
    plan_edges,
    register_partitioner,
    validate_num_cards,
)

__all__ = [
    "BoundaryEdges",
    "ComponentMerges",
    "FabricError",
    "FabricRun",
    "ForestShard",
    "Message",
    "NET_PROFILES",
    "NetProfile",
    "NetworkCostReport",
    "PARTITIONERS",
    "PartitionPlan",
    "PartitionStats",
    "ShardScatter",
    "SyncRound",
    "get_net_profile",
    "get_partitioner",
    "list_net_profiles",
    "list_partitioners",
    "model_rounds",
    "partition_vertices",
    "plan_edges",
    "register_partitioner",
    "run_fabric",
    "traffic_summary",
    "validate_num_cards",
]
