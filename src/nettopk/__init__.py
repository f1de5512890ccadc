"""Network-wide top-k flow detection simulator.

Every switch maintains a local top-k table over its own traffic and
periodically runs a two-round merge (aggregation, then consolidation)
whose result is an identical global top-k table on every switch, using
only operations legal in a feed-forward switch pipeline.
"""

from .cli import (
    ExperimentConfig,
    ExperimentReport,
    node_memory_bytes,
    recall_at_k,
    run_experiment,
)
from .cluster import partition, run_clustered
from .flowtable import (
    FlowEntry,
    MultiVectorTable,
    TableConfig,
    hash_index,
    memory_bytes,
    snapshot_copy,
)
from .precision import LocalTopKState, local_estimate, process_packet
from .protocol import Round, RoundPhase, SwitchState, run_cycle
from .transport import DeliveryOrder, Network, NetworkConfig
from .workload import SplitPlan, Trace, exact_topk, gen_zipf, read_trace, split_stream, write_trace

__all__ = [
    "DeliveryOrder",
    "ExperimentConfig",
    "ExperimentReport",
    "FlowEntry",
    "LocalTopKState",
    "MultiVectorTable",
    "Network",
    "NetworkConfig",
    "Round",
    "RoundPhase",
    "SplitPlan",
    "SwitchState",
    "TableConfig",
    "Trace",
    "exact_topk",
    "gen_zipf",
    "hash_index",
    "local_estimate",
    "memory_bytes",
    "node_memory_bytes",
    "partition",
    "process_packet",
    "read_trace",
    "recall_at_k",
    "run_clustered",
    "run_cycle",
    "run_experiment",
    "snapshot_copy",
    "split_stream",
    "write_trace",
]
