"""Local top-k maintenance over a switch's own packet stream.

Each packet probes its slot in every vector in pipeline order. A matching
ID increments that counter and stops. Otherwise the packet remembers the
smallest counter it saw (MinCount, empty slots count as 0, earliest vector
wins ties) and, with probability 1/(MinCount+1), recirculates to overwrite
that slot with (id, MinCount+1). The write itself is modeled as zero-cost,
but every such second pass is tallied so recirculation load is reportable.

Randomness is an explicit splitmix64 state per switch, so whole-network
runs are bit-reproducible. process_packet states the rule per packet on the
table's rows and, through flowtable.logged_rows, can record the AccessLog
that proves pipeline legality; it is the reference. ingest applies it to a
stream, and both engines ingest through it. For d=2, the paper's
configuration, it hashes each block of packets once with numpy, then one
loop works on the table's row lists directly, with both probes unrolled.
splitmix64's state is a Weyl sequence, so the loop takes its draws from
numpy chunks computed ahead and advances the state by the draws it used. Any other d runs
process_packet on each packet. Tests require ingest to match a
process_packet loop exactly and pin the chunks to splitmix64.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .flowtable import (
    EMPTY_ID,
    AccessLog,
    FieldOrder,
    MultiVectorTable,
    TableConfig,
    hash_index,
    logged_rows,
    vector_hash_indices,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's Weyl increment

# Packets hashed and converted to Python ints at a time by ingest. Bounds the
# block's list copies, which would otherwise be trace-length. At 2**14 the
# 128 KiB lists sometimes kept glibc from trimming its heap after a seed, and
# the peak RSS of later seeds crept upwards; 32 KiB lists did not.
INGEST_BLOCK = 1 << 12

# splitmix64 draws computed with numpy at a time by ingest's d=2 loop. The
# draws of a chunk that a call leaves unused cost their share of one numpy
# pass and nothing else: rng_state advances by the draws used.
DRAW_BLOCK = 1 << 12


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def splitmix64_outputs(state: int, n: int) -> np.ndarray:
    """The outputs of the next n splitmix64 steps from state, as uint64.

    The state is a Weyl sequence, so step i mixes state + i * gamma; numpy's
    uint64 arithmetic wraps modulo 2**64 as the masks in splitmix64 do.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += state & _MASK64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def replace_limits(z: np.ndarray) -> np.ndarray:
    """_MASK64 // (z + 1) for each uint64 draw z, and 0 where z is _MASK64.

    A miss whose minimum count c is at least 1 replaces iff c < its draw's
    limit. That is process_packet's test z < _MASK64 // (c + 1): both say
    (z + 1) * (c + 1) <= _MASK64. A limit is small for most draws, so the
    per-packet test is one comparison of small ints.
    """
    z = z + 1  # wraps _MASK64 to 0, and numpy's integer division by 0 gives 0
    with np.errstate(divide="ignore"):
        return np.floor_divide(_MASK64, z, out=z)


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
    config = state.table.config
    ids, counts = logged_rows(state.table, log)
    min_count = -1
    min_vec = 0
    min_idx = 0
    for i in range(config.d):
        j = hash_index(config, i, flow_id)
        if ids[i][j] == flow_id:
            counts[i][j] += 1
            return
        c = counts[i][j]
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
    ids[min_vec][min_idx] = flow_id
    counts[min_vec][min_idx] = min_count + 1


def ingest(state: LocalTopKState, packets) -> None:
    """Account a sequence of flow IDs in order, as process_packet would.

    A flow ID 0 anywhere raises ValueError before any packet is accounted.
    For d=2 the slots of a block of packets are hashed with numpy, then the
    rule runs on the table's row lists with both probes unrolled. A miss on a
    minimum count c >= 1 takes the next replace_limits value of the draws
    from the RNG state on, computed DRAW_BLOCK at a time, and replaces iff c
    is below it. The state then advances by the draws used. Any other d runs
    process_packet on each packet.
    """
    packets = np.asarray(packets)
    if not packets.all():
        raise ValueError(f"flow id {EMPTY_ID} is the empty-slot sentinel")
    table = state.table
    config = table.config
    if config.d != 2:
        for start in range(0, len(packets), INGEST_BLOCK):
            for flow_id in packets[start : start + INGEST_BLOCK].tolist():
                process_packet(state, flow_id)
        return
    mask = config.s - 1
    ids0, ids1 = table.ids
    counts0, counts1 = table.counts
    seed0, seed1 = config.seeds
    rng = state.rng_state
    # the limits of the draws from rng on, DRAW_BLOCK at a time, computed
    # only when the loop reaches them
    chunk = DRAW_BLOCK
    next_limit = chain.from_iterable(
        replace_limits(splitmix64_outputs(origin, chunk)).tolist() for origin in count(rng, chunk * _GAMMA)
    ).__next__
    draws = 0
    recirculations = 0
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
                if c1:
                    draws += 1
                    if c1 >= next_limit():
                        continue
                ids1[j1] = flow_id
                counts1[j1] = c1 + 1
            else:
                if c:
                    draws += 1
                    if c >= next_limit():
                        continue
                ids0[j0] = flow_id
                counts0[j0] = c + 1
            recirculations += 1
    state.rng_state = (rng + draws * _GAMMA) & _MASK64
    state.recirculations += recirculations


def local_estimate(state: LocalTopKState, flow_id: int) -> int | None:
    """Stored count for flow_id if present in a probed slot, else None."""
    table = state.table
    for i in range(table.config.d):
        j = hash_index(table.config, i, flow_id)
        if table.ids[i][j] == flow_id:
            return table.counts[i][j]
    return None
