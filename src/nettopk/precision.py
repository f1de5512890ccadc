"""Local top-k maintenance over a switch's own packet stream.

Each packet probes its slot in every vector in pipeline order. A matching
ID increments that counter and stops. Otherwise the packet remembers the
smallest counter it saw (MinCount, empty slots count as 0, earliest vector
wins ties) and, with probability 1/(MinCount+1), recirculates to overwrite
that slot with (id, MinCount+1). The write itself is modeled as zero-cost,
but every such second pass is tallied so recirculation load is reportable.

Randomness is an explicit splitmix64 state per switch, so whole-network
runs are bit-reproducible. This is the only implementation of the rule:
the array engine's ingest_arrays runs it on a switch's array rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flowtable import EMPTY_ID, AccessLog, FieldOrder, MultiVectorTable, TableConfig, hash_index

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def derive_seed(base: int, stream: int) -> int:
    """Independent 64-bit seed for a named substream of a master seed."""
    state = (base ^ (stream * 0x9E3779B97F4A7C15)) & _MASK64
    for _ in range(2):
        state, z = splitmix64(state)
    return z


@dataclass
class LocalTopKState:
    """A live local top-k table plus its replacement-decision RNG state."""

    table: MultiVectorTable
    rng_state: int
    recirculations: int = 0

    @classmethod
    def create(cls, config: TableConfig, rng_seed: int) -> "LocalTopKState":
        return cls(table=MultiVectorTable(config, FieldOrder.ID_FIRST), rng_state=rng_seed & _MASK64)


def process_packet(state: LocalTopKState, flow_id: int, log: AccessLog | None = None) -> None:
    """Account one packet of flow_id into the local top-k table."""
    assert flow_id != EMPTY_ID
    table = state.table
    config = table.config
    min_count = -1
    min_vec = 0
    min_idx = 0
    for i in range(config.d):
        j = hash_index(config, i, flow_id)
        if table.read_id(i, j, log) == flow_id:
            c = table.read_count(i, j, log)
            table.write_count(i, j, c + 1, log)
            return
        c = table.read_count(i, j, log)
        if min_count < 0 or c < min_count:
            min_count = c
            min_vec = i
            min_idx = j
    if min_count > 0:
        # replace with probability 1/(MinCount+1); threshold drawn on 64 bits
        state.rng_state, z = splitmix64(state.rng_state)
        if z >= _MASK64 // (min_count + 1):
            return
    state.recirculations += 1
    if log is not None:
        log.recirculate()
    table.write_id(min_vec, min_idx, flow_id, log)
    table.write_count(min_vec, min_idx, min_count + 1, log)


def ingest(state: LocalTopKState, packets) -> None:
    """Feed a sequence of flow IDs through process_packet in order."""
    for fid in packets:
        process_packet(state, int(fid))


def local_estimate(state: LocalTopKState, flow_id: int) -> int | None:
    """Stored count for flow_id if present in a probed slot, else None."""
    table = state.table
    for i in range(table.config.d):
        j = hash_index(table.config, i, flow_id)
        if table.read_id(i, j) == flow_id:
            return table.read_count(i, j)
    return None
