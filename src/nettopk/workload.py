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
affinity=1 gives every non-top-k flow a dedicated switch. The split makes
two passes over the trace in blocks of SPLIT_BLOCK packets. The first
chooses each packet's switch into a byte-a-packet array. It looks each
packet up in a table indexed by flow id, built once per split from the
trace's distinct ids, that holds each flow's home switch, or n for a top
flow. While the largest id is below the packet count over
TABLE_PACKETS_PER_ID the table takes at most half a byte a packet; a
trace with larger ids hashes every packet instead and finds the top
packets by binary search among the sorted top ids. The second pass orders
each block stably by switch (a radix sort while the switch array is 8 or
16 bits wide, up to 65536 switches) and copies its runs into streams
allocated at their final lengths, so each stream stays in trace order. The
random draws come in the order of a whole-trace choice, so the streams do
not depend on the block size. The hops are the last draws, and none is
drawn past the last packet that leaves home; at affinity 1 no stay coin
and no hop is drawn at all. Besides the streams and the flow table, the
draws and then the switch array, a byte a packet each, are the only
trace-sized arrays.

Both block loops, zipf_ranks' and split_stream's, keep each block's
temporaries below cli.MMAP_THRESHOLD, so under the pinned allocator none
is a fresh mapping faulted in on every block. Each uses the largest block
of a multiple of 1024 elements that does so: fewer, larger blocks cost
less per element.

exact_topk is the ground-truth tally; ties break toward the larger flow ID,
mirroring the consolidation tie rule. It reads Trace.tally, one cached
np.unique per trace that read_trace's distinct-id check and split_stream's
top-k ids share, and sorts only the flows tied with or above the k-th
largest tally. A Trace's packets are read-only, so the tally cannot go
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
# before it finishes a block's remaining draws by binary search. A block's
# float64 and int64 temporaries (120 KiB) stay below cli.MMAP_THRESHOLD.
ZIPF_BLOCK = 15 << 10
GUIDE_STEPS = 8

# Packets split_stream assigns or orders by switch at a time. Keeps its
# per-packet temporaries, the int64 hops, take and argsort indices among
# them, below cli.MMAP_THRESHOLD (120 KiB at most), so none is a fresh
# mmap faulted in on every block.
SPLIT_BLOCK = 15 << 10

# split_stream looks flows up in a table indexed by flow id while the
# largest id is below a trace's packets over this: at most a quarter of a
# byte a packet below 256 switches, half a byte up to 65536.
TABLE_PACKETS_PER_ID = 4


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


def physical_memory() -> int:
    """Bytes of physical memory, the bound on what a run may allocate."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_synthesis_memory(num_packets: int, num_flows: int) -> None:
    """Reject a synthesis that would need more than physical memory."""
    need = ZIPF_BYTES_PER_PACKET * num_packets + ZIPF_BYTES_PER_FLOW * num_flows
    have = physical_memory()
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
    if num_packets < 0:
        raise ValueError(f"--packets must be non-negative, not {num_packets}")
    if num_flows < 1:
        raise ValueError(f"--flows must be at least 1, not {num_flows}")
    if num_flows > MAX_FLOWS:
        raise ValueError(f"--flows must be at most {MAX_FLOWS}: flow ids are uint32")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, not {seed}")
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
    if k < len(ids):
        # only the flows tied with or above the k-th largest tally can rank
        kth = np.partition(tallies, len(ids) - k)[len(ids) - k]
        held = np.flatnonzero(tallies >= kth)
        ids, tallies = ids[held], tallies[held]
    order = np.lexsort((-ids.astype(np.int64), -tallies.astype(np.int64)))
    return [FlowEntry(int(ids[i]), int(tallies[i])) for i in order[:k]]


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


def _flow_table(ids: np.ndarray, top_ids: np.ndarray, home_seed: int, n: int, num_packets: int) -> np.ndarray | None:
    """Each flow's home switch, indexed by flow id, with n for a top flow.

    None when the largest id reaches num_packets // TABLE_PACKETS_PER_ID:
    the table then would no longer be small next to the trace.
    """
    if not len(ids) or ids[-1] >= num_packets // TABLE_PACKETS_PER_ID:
        return None
    table = np.zeros(int(ids[-1]) + 1, dtype=np.min_scalar_type(n))
    for start in range(0, len(ids), SPLIT_BLOCK):
        block = ids[start : start + SPLIT_BLOCK]
        table[block] = _home_switches(block, home_seed, n)
    table[top_ids] = n
    return table


def split_stream(trace: Trace, plan: SplitPlan) -> list[np.ndarray]:
    """Partition a trace into per-switch streams, preserving relative order."""
    if plan.k > trace.num_flows:
        raise ValueError("k exceeds the number of flows in the trace")
    n = plan.n_switches
    packets = trace.packets
    if n == 1:
        return [packets.copy()]
    top = exact_topk(trace, plan.k)
    top_ids = np.sort(np.array([e.id for e in top], dtype=np.uint32))
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
    # the hops are the generator's last draws, so none is drawn past the
    # last packet that leaves home: hop_end is one past it, 0 if none does.
    # At affinity 1 every coin is True, so none is drawn
    stay = None
    hop_end = 0
    if m and plan.affinity < 1.0:
        stay = np.empty(m, dtype=bool)
        for start in range(0, m, SPLIT_BLOCK):
            stay[start : start + SPLIT_BLOCK] = rng.random(min(SPLIT_BLOCK, m - start)) < plan.affinity
        last_leave = int(np.argmin(stay[::-1]))
        hop_end = 0 if stay[m - 1 - last_leave] else m - last_leave
    home_seed = derive_seed(plan.seed, 1)
    table = _flow_table(trace.tally[0], top_ids, home_seed, n, len(packets))
    # first pass: every packet's switch, a byte a packet that outlives the draws
    switch = np.empty(len(packets), dtype=dtype)
    sizes = np.zeros(n, dtype=np.int64)
    top_done = rest_done = 0
    for start in range(0, len(packets), SPLIT_BLOCK):
        block = packets[start : start + SPLIT_BLOCK]
        # every packet starts at its flow's home; a top flow's packets then
        # take their drawn switches
        if table is not None:
            home = table.take(block)
            top_mask = home == n
        else:
            home = _home_switches(block, home_seed, n)
            top_mask = top_ids.take(np.searchsorted(top_ids, block), mode="clip") == block
        block_switch = switch[start : start + SPLIT_BLOCK]
        block_switch[:] = home
        top_at = np.flatnonzero(top_mask)
        top_end = top_done + len(top_at)
        block_switch[top_at] = top_switch[top_done:top_end]
        top_done = top_end
        rest_end = rest_done + len(block) - len(top_at)
        # a packet that leaves home hops to one of the other n-1 switches
        hops = min(rest_end, hop_end) - rest_done
        if hops > 0:
            at = np.flatnonzero(~top_mask)[:hops]
            hop = rng.integers(0, n - 1, hops)
            hop += block_switch[at]
            hop += 1
            hop %= n
            leaves = ~stay[rest_done : rest_done + hops]
            block_switch[at[leaves]] = hop[leaves]
        rest_done = rest_end
        sizes += np.bincount(block_switch, minlength=n)
    del top_switch, stay, table
    # second pass: each block, ordered stably by switch, is cut into the
    # streams, which are allocated at their final lengths
    streams = [np.empty(size, dtype=packets.dtype) for size in sizes.tolist()]
    filled = [0] * n
    for start in range(0, len(packets), SPLIT_BLOCK):
        block_switch = switch[start : start + SPLIT_BLOCK]
        order = np.argsort(block_switch, kind="stable")
        ordered = packets[start : start + SPLIT_BLOCK].take(order)
        counts = np.bincount(block_switch, minlength=n)
        cut = 0
        for i in np.flatnonzero(counts).tolist():
            size = int(counts[i])
            streams[i][filled[i] : filled[i] + size] = ordered[cut : cut + size]
            filled[i] += size
            cut += size
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
