"""Trace synthesis, binary trace I/O, stream splitting, and the exact oracle.

Traces are flat sequences of 32-bit flow IDs (never 0). gen_zipf draws
packet flows from a Zipf(a) rank distribution and relabels ranks through a
seeded permutation so IDs carry no rank information.

split_stream models an adversarial placement: packets of the true top-k
flows go to a uniformly random switch per packet, every other flow has a
hash-assigned home switch that attracts each of its packets with
probability `affinity` (the rest go uniformly to the other switches).
affinity=1 gives every non-top-k flow a dedicated switch.

exact_topk is the ground-truth tally; ties break toward the larger flow ID,
mirroring the consolidation tie rule.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .flowtable import FlowEntry
from .precision import derive_seed

TRACE_MAGIC = b"NTRC"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sBIQ")


@dataclass(frozen=True, eq=False)
class Trace:
    packets: np.ndarray  # uint32 flow ids, no zeros
    num_flows: int


def gen_zipf(a: float, num_packets: int, num_flows: int, seed: int) -> Trace:
    """Synthesize a trace with rank-r flow probability proportional to r^-a."""
    if a <= 0:
        raise ValueError("zipf exponent must be positive")
    if num_flows < 1:
        raise ValueError("need at least one flow")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, num_flows + 1, dtype=np.float64) ** -a
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    u = rng.random(num_packets)
    ranks = np.searchsorted(cdf, u, side="right")
    ids_by_rank = rng.permutation(num_flows).astype(np.uint32) + 1
    return Trace(packets=ids_by_rank[ranks], num_flows=num_flows)


def exact_topk(trace: Trace, k: int) -> list[FlowEntry]:
    """Exact top-k flows by full tally; ties broken by larger flow ID."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids, tallies = np.unique(trace.packets, return_counts=True)
    order = np.lexsort((-ids.astype(np.int64), -tallies.astype(np.int64)))
    top = order[:k]
    return [FlowEntry(int(ids[i]), int(tallies[i])) for i in top]


def _home_switches(ids: np.ndarray, seed: int, n: int) -> np.ndarray:
    # in place: a trace-length uint64 temporary per step would set the
    # process's peak memory
    m32 = np.uint64(0xFFFFFFFF)
    x = ids.astype(np.uint64)
    x ^= np.uint64(seed & 0xFFFFFFFF)
    x &= m32
    x ^= x >> np.uint64(16)
    x *= np.uint64(0x85EBCA6B)
    x &= m32
    x ^= x >> np.uint64(13)
    x *= np.uint64(0xC2B2AE35)
    x &= m32
    x ^= x >> np.uint64(16)
    x %= np.uint64(n)
    return x.view(np.int64)


@dataclass(frozen=True)
class SplitPlan:
    """Placement policy for split_stream."""

    k: int
    n_switches: int
    affinity: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.affinity <= 1.0:
            raise ValueError("affinity must be in [0, 1]")
        if self.n_switches < 1:
            raise ValueError("need at least one switch")

    def home(self, flow_id: int) -> int:
        return int(_home_switches(np.array([flow_id], dtype=np.uint64), derive_seed(self.seed, 1), self.n_switches)[0])


def split_stream(trace: Trace, plan: SplitPlan) -> list[np.ndarray]:
    """Partition a trace into per-switch streams, preserving relative order."""
    if plan.k > trace.num_flows:
        raise ValueError("k exceeds the number of flows in the trace")
    n = plan.n_switches
    packets = trace.packets
    if n == 1:
        return [packets.copy()]
    top_ids = np.array([e.id for e in exact_topk(trace, plan.k)], dtype=np.uint32)
    rng = np.random.default_rng(derive_seed(plan.seed, 2))
    top_mask = np.isin(packets, top_ids)
    # int32 halves this trace-length array, which is live at the peak
    switch = np.empty(len(packets), dtype=np.int32)
    switch[top_mask] = rng.integers(0, n, int(top_mask.sum()))
    rest = ~top_mask
    m = int(rest.sum())
    homes = _home_switches(packets[rest], derive_seed(plan.seed, 1), n)
    stay = rng.random(m) < plan.affinity
    # a packet that leaves home hops to one of the other n-1 switches; built
    # in place and freed before the per-switch split, because these
    # trace-length arrays set the process's peak memory
    dest = rng.integers(0, n - 1, m)
    dest += homes
    dest += 1
    dest %= n
    np.copyto(dest, homes, where=stay)
    switch[rest] = dest
    del homes, stay, dest
    return [packets[switch == i] for i in range(n)]


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, trace.num_flows, len(trace.packets)))
        fh.write(trace.packets.astype("<u4").tobytes())


def read_trace(path: str) -> Trace:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, num_flows, num_packets = _HEADER.unpack(header)
        if magic != TRACE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != TRACE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if 4 * num_packets > held:
            raise ValueError(
                f"{path}: truncated packet data (header claims {num_packets} packets, "
                f"file holds {held // 4})"
            )
        payload = fh.read(4 * num_packets)
        if len(payload) != 4 * num_packets:
            raise ValueError(f"{path}: truncated packet data")
        packets = np.frombuffer(payload, dtype="<u4").astype(np.uint32)
    if (packets == 0).any():
        raise ValueError(f"{path}: flow id 0 is reserved")
    return Trace(packets=packets, num_flows=num_flows)
