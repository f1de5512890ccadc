"""Array kernels for bulk simulation.

The object model in flowtable/protocol is the readable reference
implementation; these kernels compute the same results over packed uint64
arrays so large configurations (hundreds of switches, millions of packets)
finish in seconds.

Ingest is the one sequential kernel: each packet's replacement decision
depends on the table the previous packets left. It is jitted when numba is
installed and otherwise runs as a pure-Python twin with identical branches;
tests pin the two together.

The merge rounds are computed in closed form with numpy. Aggregation
writes each id's network-wide total into every Sum slot holding it.
Consolidation ends with the same G-TopK on every switch whatever the
delivery order, so it is computed once: the distinct (id, count) pairs are
placed in descending (count, id) order, where no walk ever evicts or swaps
and each pair lands in the first empty slot on its probe path. Differential
tests pin these functions against the object model's message-by-message
cycle.

Array layout: ids[d, s] and counts[d, s] per table, uint64 throughout.
A switch population is ids[n, d, s]. Empty slot is id 0, count 0.

All randomness is splitmix64 over explicit uint64 state, bit-identical
between the jitted and pure paths.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; ingest then runs py_ingest
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap


U64 = np.uint64
_M32 = U64(0xFFFFFFFF)
_M64 = U64(0xFFFFFFFFFFFFFFFF)
_PY_M64 = 0xFFFFFFFFFFFFFFFF


@njit(cache=True)
def _hash_slot(fid, seed, mask):
    x = (fid ^ seed) & _M32
    x ^= x >> U64(16)
    x = (x * U64(0x85EBCA6B)) & _M32
    x ^= x >> U64(13)
    x = (x * U64(0xC2B2AE35)) & _M32
    x ^= x >> U64(16)
    return np.int64(x & mask)


@njit(cache=True)
def _next64(state):
    state = state + U64(0x9E3779B97F4A7C15)
    z = state
    z = (z ^ (z >> U64(30))) * U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> U64(27))) * U64(0x94D049BB133111EB)
    z = z ^ (z >> U64(31))
    return state, z


@njit(cache=True)
def nb_ingest(ids, counts, seeds, mask, packets, rng_state):
    """Feed packets through local top-k replacement; returns (rng_state, recircs)."""
    d = ids.shape[0]
    recircs = 0
    one = U64(1)
    for p in range(packets.shape[0]):
        fid = packets[p]
        matched = False
        min_count = _M64
        min_vec = 0
        min_idx = np.int64(0)
        for i in range(d):
            j = _hash_slot(fid, seeds[i], mask)
            if ids[i, j] == fid:
                counts[i, j] += one
                matched = True
                break
            c = counts[i, j]
            if c < min_count:
                min_count = c
                min_vec = i
                min_idx = j
        if matched:
            continue
        if min_count > U64(0):
            rng_state, z = _next64(rng_state)
            if z >= _M64 // (min_count + one):
                continue
        ids[min_vec, min_idx] = fid
        counts[min_vec, min_idx] = min_count + one
        recircs += 1
    return rng_state, recircs


# Pure-Python twin of nb_ingest. Same arrays, same branches, no jit.


def _py_hash_slot(fid: int, seed: int, mask: int) -> int:
    x = (fid ^ seed) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x & mask


def _py_next64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _PY_M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _PY_M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _PY_M64
    z = z ^ (z >> 31)
    return state, z


def py_ingest(ids, counts, seeds, mask, packets, rng_state):
    d = ids.shape[0]
    mask = int(mask)
    seeds_l = [int(x) for x in seeds]
    state = int(rng_state)
    recircs = 0
    for fid in packets.tolist():
        matched = False
        min_count = -1
        min_vec = 0
        min_idx = 0
        for i in range(d):
            j = _py_hash_slot(fid, seeds_l[i], mask)
            if int(ids[i, j]) == fid:
                counts[i, j] = int(counts[i, j]) + 1
                matched = True
                break
            c = int(counts[i, j])
            if min_count < 0 or c < min_count:
                min_count = c
                min_vec = i
                min_idx = j
        if matched:
            continue
        if min_count > 0:
            state, z = _py_next64(state)
            if z >= _PY_M64 // (min_count + 1):
                continue
        ids[min_vec, min_idx] = fid
        counts[min_vec, min_idx] = min_count + 1
        recircs += 1
    return U64(state), recircs


_ingest_impl = nb_ingest if HAVE_NUMBA else py_ingest


def ingest_arrays(ids, counts, seeds, mask, packets, rng_state):
    """Ingest packets into one switch's (d, s) arrays; returns (rng_state, recircs).

    The RNG state is pinned to uint64 on the way in and out so the value a
    caller feeds back for the next batch never shifts numba's typing.
    """
    state, recircs = _ingest_impl(
        ids, counts, seeds, mask, packets, np.uint64(int(rng_state) & _PY_M64)
    )
    return np.uint64(int(state) & _PY_M64), int(recircs)


def vector_hash_indices(ids: np.ndarray, seed: int, mask: int) -> np.ndarray:
    """Vectorized slot indices for an array of flow IDs (one hash seed)."""
    x = (ids.astype(np.uint64) ^ np.uint64(seed & 0xFFFFFFFF)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(0x85EBCA6B)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(13)
    x = (x * np.uint64(0xC2B2AE35)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    return (x & np.uint64(mask)).astype(np.int64)


def _place(ids: np.ndarray, counts: np.ndarray, seeds, mask, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d, s) table that walking the occupied (id, count) pairs into an
    empty COUNT_FIRST table produces, whatever order they are walked in."""
    d = len(seeds)
    occupied = ids != 0
    ids, counts = ids[occupied], counts[occupied]
    order = np.lexsort((ids, counts))[::-1]  # descending by (count, id)
    ids, counts = ids[order], counts[order]
    distinct = np.ones(len(ids), dtype=bool)
    distinct[1:] = (ids[1:] != ids[:-1]) | (counts[1:] != counts[:-1])
    ids, counts = ids[distinct], counts[distinct]
    out_ids = np.zeros((d, s), dtype=np.uint64)
    out_counts = np.zeros((d, s), dtype=np.uint64)
    for i in range(d):
        slots = vector_hash_indices(ids, int(seeds[i]), int(mask))
        _, first = np.unique(slots, return_index=True)
        out_ids[i, slots[first]] = ids[first]
        out_counts[i, slots[first]] = counts[first]
        missed = np.ones(len(ids), dtype=bool)
        missed[first] = False
        ids, counts = ids[missed], counts[missed]
    return out_ids, out_counts


def aggregate_arrays(snap_ids, snap_counts, sum_counts, seeds, mask) -> int:
    """All-to-all aggregation round; returns delivered message count.

    Every occupied Sum slot receives its id's total over all n snapshots.
    """
    n = snap_ids.shape[0]
    occupied = snap_ids != 0
    uniq, inverse = np.unique(snap_ids[occupied], return_inverse=True)
    totals = np.zeros(len(uniq), dtype=np.uint64)
    np.add.at(totals, inverse, snap_counts[occupied])
    sum_counts[occupied] = totals[inverse]
    return (n - 1) * int(occupied.sum())


def consolidate_arrays(sum_ids, sum_counts, g_ids, g_counts, seeds, mask) -> int:
    """All-to-all consolidation round into empty G-TopK tables; returns deliveries."""
    n, _, s = sum_ids.shape
    g_ids[:], g_counts[:] = _place(sum_ids, sum_counts, seeds, mask, s)
    return (n - 1) * int(np.count_nonzero(sum_ids))


def replay_arrays(src_ids, src_counts, dst_ids, dst_counts, seeds, mask) -> int:
    """Walk every entry of one table into an empty one; returns entries walked."""
    dst_ids[:], dst_counts[:] = _place(src_ids, src_counts, seeds, mask, src_ids.shape[1])
    return int(np.count_nonzero(src_ids))
