"""Local top-k maintenance over a switch's own packet stream.

Each packet probes its slot in every vector in pipeline order. A matching
ID increments that counter and stops. Otherwise the packet remembers the
smallest counter it saw (MinCount, empty slots count as 0, earliest vector
wins ties) and, with probability 1/(MinCount+1), recirculates to overwrite
that slot with (id, MinCount+1). The write itself is modeled as zero-cost,
but every such second pass is tallied so recirculation load is reportable.

Randomness is an explicit splitmix64 state per switch, so whole-network
runs are bit-reproducible. The rule is written twice. process_packet states
it per packet on the table's accessors and can record the AccessLog that
proves pipeline legality; it is the reference. ingest applies it to a
stream in blocks: each block is hashed once with numpy, then one loop
works on the table's row lists directly. Both engines ingest through it,
and tests require it to match a process_packet loop exactly.

d=2, the paper's configuration, has its own ingest loop: both probes are
unrolled and the splitmix64 step is inlined, which about halves ingest time.
Every other d runs the general loop. A general-d rewrite (starred unpacking,
a vector-0 fast path) was slower than the general loop for every d, so the
general loop stays as it is; a test pins the inlined step to splitmix64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flowtable import (
    EMPTY_ID,
    AccessLog,
    FieldOrder,
    MultiVectorTable,
    TableConfig,
    hash_index,
    vector_hash_indices,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Packets hashed and converted to Python ints at a time by ingest. Bounds the
# block's list copies, which would otherwise be trace-length. At 2**14 the
# 128 KiB lists sometimes kept glibc from trimming its heap after a seed, and
# the peak RSS of later seeds crept upwards; 32 KiB lists did not.
INGEST_BLOCK = 1 << 12


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
    if flow_id == EMPTY_ID:
        raise ValueError(f"flow id {EMPTY_ID} is the empty-slot sentinel")
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
    """Account a sequence of flow IDs in order, as process_packet would.

    The slots of a block of packets are hashed with numpy, then the rule
    runs on the table's row lists with the RNG state and recirculation
    count held in locals. d=2 has its own loop with both probes unrolled
    and splitmix64 inlined. A flow ID 0 anywhere raises ValueError before
    any packet is accounted.
    """
    packets = np.asarray(packets)
    if not packets.all():
        raise ValueError(f"flow id {EMPTY_ID} is the empty-slot sentinel")
    table = state.table
    config = table.config
    mask = config.s - 1
    ids, counts = table.ids, table.counts
    rng = state.rng_state
    recirculations = 0
    if config.d == 2:
        ids0, ids1 = ids
        counts0, counts1 = counts
        seed0, seed1 = config.seeds
        for start in range(0, len(packets), INGEST_BLOCK):
            block = packets[start : start + INGEST_BLOCK]
            s0 = vector_hash_indices(block, seed0, mask).tolist()
            s1 = vector_hash_indices(block, seed1, mask).tolist()
            for flow_id, j0, j1 in zip(block.tolist(), s0, s1):
                if ids0[j0] == flow_id:
                    counts0[j0] += 1
                    continue
                if ids1[j1] == flow_id:
                    counts1[j1] += 1
                    continue
                # vector 1 only when strictly smaller: ties go to vector 0
                c = counts0[j0]
                c1 = counts1[j1]
                if c1 < c:
                    c, vec_ids, vec_counts, j = c1, ids1, counts1, j1
                else:
                    vec_ids, vec_counts, j = ids0, counts0, j0
                if c:
                    # splitmix64(rng), inlined
                    rng = (rng + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                    z = ((rng ^ (rng >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                    if z ^ (z >> 31) >= 0xFFFFFFFFFFFFFFFF // (c + 1):
                        continue
                recirculations += 1
                vec_ids[j] = flow_id
                vec_counts[j] = c + 1
    else:
        for start in range(0, len(packets), INGEST_BLOCK):
            block = packets[start : start + INGEST_BLOCK]
            slots = [vector_hash_indices(block, seed, mask).tolist() for seed in config.seeds]
            for flow_id, probe in zip(block.tolist(), zip(*slots)):
                min_count = -1
                for i, j in enumerate(probe):
                    if ids[i][j] == flow_id:
                        counts[i][j] += 1
                        break
                    c = counts[i][j]
                    if min_count < 0 or c < min_count:
                        min_count = c
                        min_vec = i
                        min_idx = j
                else:
                    if min_count > 0:
                        rng, z = splitmix64(rng)
                        if z >= _MASK64 // (min_count + 1):
                            continue
                    recirculations += 1
                    ids[min_vec][min_idx] = flow_id
                    counts[min_vec][min_idx] = min_count + 1
    state.rng_state = rng
    state.recirculations += recirculations


def local_estimate(state: LocalTopKState, flow_id: int) -> int | None:
    """Stored count for flow_id if present in a probed slot, else None."""
    table = state.table
    for i in range(table.config.d):
        j = hash_index(table.config, i, flow_id)
        if table.read_id(i, j) == flow_id:
            return table.read_count(i, j)
    return None
