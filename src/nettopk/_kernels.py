"""The bulk array engine.

The object model in flowtable/precision/protocol/cluster is the readable
reference implementation; this module runs the same lossless cycles over
packed uint64 arrays so large configurations (hundreds of switches,
millions of packets) finish in seconds. Only it and cli know the layout:
ids[d, s] and counts[d, s] per table, ids[n, d, s] per switch population,
id 0 with count 0 for an empty slot. Shape and hash seeds come from the
simulation's shared TableConfig.

Ingest is sequential: each packet's replacement decision depends on the
table the previous packets left. ingest_arrays therefore runs
precision.ingest, the batch loop the reference engine also uses, on a
switch's rows, passing the numpy packet chunk straight through.

The merge rounds are computed in closed form with numpy. Aggregation
writes each id's network-wide total into every Sum slot holding it.
Consolidation ends with the same G-TopK on every switch whatever the
delivery order, so it is computed once: the distinct (id, count) pairs are
placed in descending (count, id) order, where no walk ever evicts or swaps
and each pair lands in the first empty slot on its probe path. Differential
tests pin the cycles against the object model's message-by-message ones.

perfbench/run.py times the engine by rebinding names, which fixes these:
HAVE_NUMBA, ingest_arrays and the three merge functions are module
attributes, called as globals here; the merge functions return an int
delivery count; ingest_arrays takes packets as its fifth positional
argument and returns (rng_state, recirculations); the result fields
snap_ids, g_ids, query_ids and phase_delivered keep their names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterPlan
from .flowtable import FieldOrder, MultiVectorTable, TableConfig, vector_hash_indices
from .precision import LocalTopKState, ingest
from .protocol import InvariantError

# Nothing is jitted; perfbench/run.py still records this in its environment.
HAVE_NUMBA = False


def ingest_arrays(ids, counts, config: TableConfig, rng_state, packets):
    """Ingest packets into one switch's (d, s) arrays; returns (rng_state, recircs).

    The rows are fed through precision.ingest and the resulting table is
    written back in place. The returned RNG state is a plain int to pass to
    the next batch.
    """
    shape = (config.d, config.s)
    if ids.shape != shape or counts.shape != shape:
        raise ValueError(f"rows shaped {ids.shape} and {counts.shape}, table is {shape}")
    table = MultiVectorTable(config, FieldOrder.ID_FIRST)
    table.ids = ids.tolist()
    table.counts = counts.tolist()
    state = LocalTopKState(table, int(rng_state))
    ingest(state, packets)
    ids[:] = table.ids
    counts[:] = table.counts
    return state.rng_state, state.recirculations


def _place(ids: np.ndarray, counts: np.ndarray, config: TableConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (d, s) table that walking the occupied (id, count) pairs into an
    empty COUNT_FIRST table produces, whatever order they are walked in."""
    occupied = ids != 0
    ids, counts = ids[occupied], counts[occupied]
    order = np.lexsort((ids, counts))[::-1]  # descending by (count, id)
    ids, counts = ids[order], counts[order]
    distinct = np.ones(len(ids), dtype=bool)
    distinct[1:] = (ids[1:] != ids[:-1]) | (counts[1:] != counts[:-1])
    ids, counts = ids[distinct], counts[distinct]
    out_ids = np.zeros((config.d, config.s), dtype=np.uint64)
    out_counts = np.zeros((config.d, config.s), dtype=np.uint64)
    for i, seed in enumerate(config.seeds):
        slots = vector_hash_indices(ids, seed, config.s - 1)
        _, first = np.unique(slots, return_index=True)
        out_ids[i, slots[first]] = ids[first]
        out_counts[i, slots[first]] = counts[first]
        missed = np.ones(len(ids), dtype=bool)
        missed[first] = False
        ids, counts = ids[missed], counts[missed]
    return out_ids, out_counts


def aggregate_arrays(snap_ids, snap_counts, sum_counts) -> int:
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


def consolidate_arrays(sum_ids, sum_counts, g_ids, g_counts, config: TableConfig) -> int:
    """All-to-all consolidation round into empty G-TopK tables; returns deliveries."""
    n = sum_ids.shape[0]
    g_ids[:], g_counts[:] = _place(sum_ids, sum_counts, config)
    return (n - 1) * int(np.count_nonzero(sum_ids))


def replay_arrays(src_ids, src_counts, dst_ids, dst_counts, config: TableConfig) -> int:
    """Walk every entry of one table into an empty one; returns entries walked."""
    dst_ids[:], dst_counts[:] = _place(src_ids, src_counts, config)
    return int(np.count_nonzero(src_ids))


@dataclass
class ArrayCycleResult:
    snap_ids: np.ndarray
    snap_counts: np.ndarray
    sum_counts: np.ndarray
    g_ids: np.ndarray
    g_counts: np.ndarray
    delivered: int


def run_cycle_arrays(l_ids: np.ndarray, l_counts: np.ndarray, config: TableConfig) -> ArrayCycleResult:
    """One lossless cycle over an (n, d, s) switch population."""
    snap_ids = l_ids.copy()
    snap_counts = l_counts.copy()
    sum_counts = snap_counts.copy()
    delivered = int(aggregate_arrays(snap_ids, snap_counts, sum_counts))
    g_ids = np.zeros_like(snap_ids)
    g_counts = np.zeros_like(snap_counts)
    delivered += int(consolidate_arrays(snap_ids, sum_counts, g_ids, g_counts, config))
    return ArrayCycleResult(snap_ids, snap_counts, sum_counts, g_ids, g_counts, delivered)


def _identical(ids: np.ndarray, counts: np.ndarray) -> bool:
    """Whether every switch of an (n, d, s) population holds the same table."""
    return bool((ids == ids[0]).all() and (counts == counts[0]).all())


def check_invariants_arrays(res: ArrayCycleResult, config: TableConfig) -> None:
    """Vectorized post-cycle invariant suite for the array engine."""
    if not _identical(res.g_ids, res.g_counts):
        raise InvariantError("g_topk arrays differ between switches")

    # sum agreement
    flat_ids = res.snap_ids.reshape(-1)
    flat_counts = res.snap_counts.reshape(-1).astype(np.int64)
    nz = flat_ids != 0
    uniq, inverse = np.unique(flat_ids[nz], return_inverse=True)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inverse, flat_counts[nz])
    flat_sum = res.sum_counts.reshape(-1).astype(np.int64)
    expect = totals[inverse]
    if not (flat_sum[nz] == expect).all():
        bad = np.nonzero(flat_sum[nz] != expect)[0][:5]
        raise InvariantError(f"sum disagreement at flat offsets {bad.tolist()}")

    # placement, per-vector ordering and duplicate freedom on the (shared)
    # table of switch 0
    mask = config.s - 1
    g_ids0 = res.g_ids[0]
    g_counts0 = res.g_counts[0]
    for i, seed in enumerate(config.seeds):
        occupied = g_ids0[i] != 0
        home = vector_hash_indices(g_ids0[i][occupied], seed, mask)
        if not (home == np.nonzero(occupied)[0]).all():
            raise InvariantError(f"g_topk entry misplaced in vector {i}")
        if g_counts0[i][~occupied].any():
            raise InvariantError(f"empty g_topk slot in vector {i} carries a count")
    for i in range(1, config.d):
        occupied = g_ids0[i] != 0
        ids_i = g_ids0[i][occupied]
        counts_i = g_counts0[i][occupied]
        for earlier in range(i):
            j2 = vector_hash_indices(ids_i, config.seeds[earlier], mask)
            e_counts = g_counts0[earlier][j2]
            e_ids = g_ids0[earlier][j2]
            above = (e_counts > counts_i) | ((e_counts == counts_i) & (e_ids > ids_i))
            if not above.all():
                raise InvariantError(f"vector ordering broken between vectors {earlier} and {i}")
    occ = g_ids0 != 0
    pairs = np.stack([g_ids0[occ], g_counts0[occ]], axis=1)
    if len(np.unique(pairs, axis=0)) != len(pairs):
        raise InvariantError("duplicate (id, count) pairs in g_topk")


@dataclass
class ClusteredArrayResult:
    query_ids: np.ndarray
    query_counts: np.ndarray
    delivered: int
    phase_delivered: tuple[int, int, int]


def run_clustered_arrays(
    l_ids: np.ndarray, l_counts: np.ndarray, config: TableConfig, plan: ClusterPlan
) -> ClusteredArrayResult:
    """Lossless clustered run over an (n, d, s) population, every cycle checked."""
    g_ids = np.zeros_like(l_ids)
    g_counts = np.zeros_like(l_counts)
    p1 = 0
    for cid in range(plan.c):
        idx = np.array(plan.members(cid), dtype=np.int64)
        res = run_cycle_arrays(l_ids[idx], l_counts[idx], config)
        check_invariants_arrays(res, config)
        p1 += res.delivered
        g_ids[idx] = res.g_ids
        g_counts[idx] = res.g_counts

    reps = sorted(plan.representatives)
    ridx = np.array(reps, dtype=np.int64)
    res = run_cycle_arrays(g_ids[ridx], g_counts[ridx], config)
    check_invariants_arrays(res, config)
    rep_g_ids, rep_g_counts = res.g_ids, res.g_counts
    p2 = res.delivered

    # phase 3: every representative holds the same table, so one replay
    # rebuilds it for every non-representative
    n = len(l_ids)
    rebuilt_ids = np.zeros_like(rep_g_ids[0])
    rebuilt_counts = np.zeros_like(rep_g_counts[0])
    entries = replay_arrays(rep_g_ids[0], rep_g_counts[0], rebuilt_ids, rebuilt_counts, config)
    query_ids = np.tile(rebuilt_ids, (n, 1, 1))
    query_counts = np.tile(rebuilt_counts, (n, 1, 1))
    query_ids[ridx] = rep_g_ids
    query_counts[ridx] = rep_g_counts
    p3 = entries * (n - plan.c)  # entries times the sum of |members| - 1
    if not _identical(query_ids, query_counts):
        raise InvariantError("query tables diverged after dissemination")
    return ClusteredArrayResult(query_ids, query_counts, p1 + p2 + p3, (p1, p2, p3))
