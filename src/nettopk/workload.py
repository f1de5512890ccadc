"""Trace synthesis, binary trace I/O, stream splitting, and the exact oracle.

Traces are flat sequences of 32-bit flow IDs (never 0). gen_zipf draws
packet flows from a Zipf(a) rank distribution and relabels ranks through a
seeded permutation so IDs carry no rank information. zipf_ranks inverts
the rank cdf by guide-table lookup (Chen & Asau's indexed search): a table
of G = 2^j entries holds, for each g, the first rank whose cdf exceeds
g/G, so a draw u starts at the entry for floor(u*G) and steps up past the
few cdf values between g/G and u. It returns exactly what
np.searchsorted(cdf, u, side="right") does, several times faster on a
cdf too large for the cache. check_synthesis_memory bounds a synthesis by
physical memory before anything is allocated.

split_stream models an adversarial placement: packets of the true top-k
flows go to a uniformly random switch per packet, every other flow has a
hash-assigned home switch that attracts each of its packets with
probability `affinity` (the rest go uniformly to the other switches).
affinity=1 gives every non-top-k flow a dedicated switch. The split is
one pass over the trace in blocks of SPLIT_BLOCK packets: each block's
switches are chosen, and a stable argsort (a radix sort while the switch
array is 8 or 16 bits wide, up to 65536 switches) cuts the block into
per-switch pieces in trace order. The random draws come in the order of a
whole-trace choice, so the streams do not depend on the block size, and
besides the streams only a byte of draws a packet is trace-sized.

exact_topk is the ground-truth tally; ties break toward the larger flow ID,
mirroring the consolidation tie rule. It reads Trace.tally, one cached
np.unique per trace that read_trace's distinct-id check and split_stream's
top-k ids share. A Trace's packets are read-only, so the tally cannot go
stale.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flowtable import FlowEntry, mix32_array
from .precision import derive_seed

TRACE_MAGIC = b"NTRC"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sBIQ")

# Flow ids run from 1 to num_flows and are stored as uint32.
MAX_FLOWS = 0xFFFFFFFF

# Bytes gen_zipf holds at its peak, by tracemalloc: 16 a packet, its float64
# draw and int64 rank, and 16 a flow, the float64 cdf with either its
# weights or the guide's int64 entries (at least one a flow once there are
# as many packets; building a guide of up to two a flow holds 16 more).
ZIPF_BYTES_PER_PACKET = 16
ZIPF_BYTES_PER_FLOW = 16

# Draws zipf_ranks looks up at a time, and the most guide steps it takes
# before it finishes a block's remaining draws by binary search.
ZIPF_BLOCK = 1 << 16
GUIDE_STEPS = 8

# Packets split_stream assigns and orders by switch at a time. Bounds its
# per-packet temporaries, the int64 hops and argsort indices among them,
# which at trace length would set the process's peak memory.
SPLIT_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class Trace:
    packets: np.ndarray  # uint32 flow ids, no zeros
    num_flows: int

    def __post_init__(self) -> None:
        # tally is cached, so the packets it counts may not change under it
        self.packets.flags.writeable = False

    @cached_property
    def tally(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct flow ids in ascending order and their packet counts."""
        return np.unique(self.packets, return_counts=True)


def check_synthesis_memory(num_packets: int, num_flows: int) -> None:
    """Reject a synthesis that would need more than physical memory."""
    need = ZIPF_BYTES_PER_PACKET * num_packets + ZIPF_BYTES_PER_FLOW * num_flows
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"--packets {num_packets} needs at least {need / 2**30:.1f} GiB to synthesize "
            f"with --flows {num_flows}, more than the {have / 2**30:.1f} GiB of physical memory"
        )


def zipf_ranks(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for a cdf ending in 1.0 and u in [0, 1).

    guide[g] counts the cdf values <= g/G, so every index below it has
    cdf <= g/G <= u for g = floor(u*G), which is exact as G is a power of
    two. Stepping up while cdf[r] <= u then ends where searchsorted does,
    equal cdf values included, because the cdf never decreases.
    """
    size = 1 << (max(min(len(cdf), len(u)), 1) - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(size) / size, side="right")
    ranks = np.empty(len(u), dtype=np.intp)
    for start in range(0, len(u), ZIPF_BLOCK):
        block = u[start : start + ZIPF_BLOCK]
        r = guide[(block * size).astype(np.intp)]
        left = np.flatnonzero(cdf[r] <= block)
        for _ in range(GUIDE_STEPS):
            if not len(left):
                break
            r[left] += 1
            left = left[cdf[r[left]] <= block[left]]
        r[left] = np.searchsorted(cdf, block[left], side="right")
        ranks[start : start + ZIPF_BLOCK] = r
    return ranks


def gen_zipf(a: float, num_packets: int, num_flows: int, seed: int) -> Trace:
    """Synthesize a trace with rank-r flow probability proportional to r^-a.

    The draws are rng.random(num_packets), then rng.permutation(num_flows)
    for the ids by rank; zipf_ranks maps each draw to the rank
    np.searchsorted would, so a seed's trace is the same byte for byte.
    """
    if not 0 < a < float("inf"):
        raise ValueError(f"zipf exponent must be positive and finite, not {a}")
    if num_flows < 1:
        raise ValueError("need at least one flow")
    if num_flows > MAX_FLOWS:
        raise ValueError(f"--flows must be at most {MAX_FLOWS}: flow ids are uint32")
    check_synthesis_memory(num_packets, num_flows)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.arange(1, num_flows + 1, dtype=np.float64) ** -a)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    ranks = zipf_ranks(cdf, rng.random(num_packets))
    del cdf
    ids_by_rank = rng.permutation(num_flows).astype(np.uint32) + 1
    return Trace(packets=ids_by_rank[ranks], num_flows=num_flows)


def exact_topk(trace: Trace, k: int) -> list[FlowEntry]:
    """Exact top-k flows by full tally; ties broken by larger flow ID."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids, tallies = trace.tally
    order = np.lexsort((-ids.astype(np.int64), -tallies.astype(np.int64)))
    top = order[:k]
    return [FlowEntry(int(ids[i]), int(tallies[i])) for i in top]


def _home_switches(ids: np.ndarray, seed: int, n: int) -> np.ndarray:
    x = mix32_array(ids, seed)
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
    top = exact_topk(trace, plan.k)
    top_ids = np.array([e.id for e in top], dtype=np.uint32)
    rng = np.random.default_rng(derive_seed(plan.seed, 2))
    # the smallest unsigned dtype that holds n-1: 8 or 16 bits lets the
    # stable argsort below run as a radix sort
    dtype = np.min_scalar_type(n - 1)
    # three draw sequences, in this order: a switch per top-flow packet, a
    # stay coin per other packet, then that packet's hop. A Generator draws
    # the same values in pieces as in one call, so each is drawn a block at
    # a time and no trace-length temporary is live
    num_top = sum(e.count for e in top)
    top_switch = np.empty(num_top, dtype=dtype)
    for start in range(0, num_top, SPLIT_BLOCK):
        top_switch[start : start + SPLIT_BLOCK] = rng.integers(0, n, min(SPLIT_BLOCK, num_top - start))
    m = len(packets) - num_top
    stay = np.empty(m, dtype=bool)
    for start in range(0, m, SPLIT_BLOCK):
        stay[start : start + SPLIT_BLOCK] = rng.random(min(SPLIT_BLOCK, m - start)) < plan.affinity
    home_seed = derive_seed(plan.seed, 1)
    # the stable order keeps each switch's packets in trace order; the empty
    # first piece serves a trace with no packets
    pieces = [[packets[:0]] for _ in range(n)]
    top_done = rest_done = 0
    for start in range(0, len(packets), SPLIT_BLOCK):
        block = packets[start : start + SPLIT_BLOCK]
        top_mask = np.isin(block, top_ids)
        block_switch = np.empty(len(block), dtype=dtype)
        top_end = top_done + int(np.count_nonzero(top_mask))
        block_switch[top_mask] = top_switch[top_done:top_end]
        top_done = top_end
        rest = ~top_mask
        others = block[rest]
        rest_end = rest_done + len(others)
        # a packet that leaves home hops to one of the other n-1 switches
        homes = _home_switches(others, home_seed, n)
        dest = rng.integers(0, n - 1, len(others))
        dest += homes
        dest += 1
        dest %= n
        np.copyto(dest, homes, where=stay[rest_done:rest_end])
        rest_done = rest_end
        block_switch[rest] = dest
        order = np.argsort(block_switch, kind="stable")
        cuts = np.cumsum(np.bincount(block_switch, minlength=n)[:-1])
        # copies, not views of the sorted block, so that joining a switch's
        # pieces frees them
        for parts, piece in zip(pieces, np.split(block[order], cuts)):
            parts.append(piece.copy())
    del top_switch, stay
    streams = []
    for i in range(n):
        streams.append(np.concatenate(pieces[i]))
        pieces[i] = None  # freed as joined: pieces and streams stay one trace long
    return streams


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
        if 4 * num_packets < held:
            raise ValueError(
                f"{path}: {held - 4 * num_packets} trailing bytes after the header's {num_packets} packets"
            )
        packets = np.fromfile(fh, dtype="<u4", count=num_packets)
        if len(packets) != num_packets:
            raise ValueError(f"{path}: truncated packet data")
    if (packets == 0).any():
        raise ValueError(f"{path}: flow id 0 is reserved")
    trace = Trace(packets=packets.astype(np.uint32, copy=False), num_flows=num_flows)
    # a larger header is legal: gen_zipf's num_flows is the population size
    distinct = len(trace.tally[0])
    if num_flows < distinct:
        raise ValueError(f"{path}: header claims {num_flows} flows, packets hold {distinct} distinct ids")
    return trace
