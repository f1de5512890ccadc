"""The bulk array engine.

The object model in flowtable/precision/protocol/cluster is the readable
reference implementation; this module runs the same lossless cycles over
packed uint64 arrays so large configurations (hundreds of switches,
millions of packets) finish in seconds. Only it and cli know the layout:
ids[d, s] and counts[d, s] per table, id 0 with count 0 for an empty slot.
A population's local tables, Snapshots and Sum counts are (n, d, s);
G-TopK and Query are one (d, s) table each, the one every switch holds.
Shape and hash seeds come from the simulation's shared TableConfig.

Ingest is sequential within a switch, since each packet's replacement
decision depends on the table the previous packets left, but independent
across switches: each has its own stream, rows and splitmix64 state.
ingest_arrays runs precision.ingest, the batch loop the reference engine
also uses, on one switch's rows; ingest_population runs it for a cycle's
switches on every core through _fork.fork_map. numpy's OpenBLAS stops its
worker thread at the first fork, and nothing here calls BLAS, so the parent
forks with one thread.

The merge rounds are computed in closed form with numpy. Aggregation
writes each id's network-wide total into every Sum slot holding it.
Consolidation ends with the same G-TopK on every switch whatever the
delivery order, so it is computed and held once: the distinct (id, count)
pairs are placed in descending (count, id) order, where no walk ever evicts
or swaps and each pair lands in the first empty slot on its probe path.
Clustered phase 3 replays the representatives' table once and requires the
replay to reproduce it. Differential tests pin the cycles against the
object model's message-by-message ones. The post-cycle invariant checks
are flowtable's, the ones the object model runs too.

perfbench/run.py times the engine by rebinding names, which fixes these:
HAVE_NUMBA, ingest_arrays and the three merge functions are module
attributes, called as globals here; the merge functions return an int
delivery count; ingest_arrays takes packets as its fifth positional
argument and returns (rng_state, recirculations); the result fields
snap_ids, g_ids, query_ids and phase_delivered keep their names. A
rebound ingest_arrays records only the parent's share of a forked cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fork import fork_map
from .flowtable import (MultiVectorTable, TableConfig, check_gtopk_rows, check_identical_rows,
                        check_sum_rows, vector_hash_indices)
from .precision import LocalTopKState, ingest

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
    table = MultiVectorTable(config)
    table.ids = ids.tolist()
    table.counts = counts.tolist()
    state = LocalTopKState(table, int(rng_state))
    ingest(state, packets)
    ids[:] = table.ids
    counts[:] = table.counts
    return state.rng_state, state.recirculations


# A cycle of fewer packets is ingested in one process: forking a child and
# reaping it costs more than the child's share of the ingest saves.
FORK_MIN_PACKETS = 100_000


def ingest_population(l_ids, l_counts, config: TableConfig, rng_states: list, pieces) -> int:
    """Ingest pieces[i] into switch i's rows of the (n, d, s) arrays, for every i;
    updates rng_states in place and returns the recirculations. Each share of
    switches (see _shares) is ingested in its own process by fork_map and
    written back by switch index, so the result is the serial loop's."""
    parent = os.getpid()

    def ingest_share(share):
        done = [ingest_arrays(l_ids[i], l_counts[i], config, rng_states[i], pieces[i]) for i in share]
        # the parent ingests its rows in place; only a child's travel back
        return share, done, None if os.getpid() == parent else (l_ids[share], l_counts[share])

    shares = _shares([len(p) for p in pieces], _workers(len(pieces), sum(map(len, pieces))))
    recircs = 0
    for share, done, rows in fork_map(ingest_share, shares):
        if rows is not None:
            l_ids[share], l_counts[share] = rows
        for i, (state, recirc) in zip(share, done):
            rng_states[i] = state
            recircs += recirc
    return recircs


def _workers(n: int, packets: int) -> int:
    """Processes to ingest a cycle with: one per available core, at most n."""
    if packets < FORK_MIN_PACKETS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def _shares(sizes: list[int], workers: int) -> list[list[int]]:
    """Switch indices in at most `workers` non-empty shares, the first holding
    the largest switch: largest first, each to the share with fewest packets."""
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += sizes[i]
    return [sorted(share) for share in shares if share]


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
    """All-to-all consolidation round into the empty (d, s) G-TopK; returns deliveries."""
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
    """One lossless cycle over an (n, d, s) switch population. Its Snapshot is
    l_ids and l_counts, uncopied: the merge writes only Sum's counts and the
    one (d, s) G-TopK table every switch ends the cycle holding."""
    sum_counts = l_counts.copy()
    delivered = int(aggregate_arrays(l_ids, l_counts, sum_counts))
    g_ids, g_counts = np.zeros((2, config.d, config.s), dtype=np.uint64)
    delivered += int(consolidate_arrays(l_ids, sum_counts, g_ids, g_counts, config))
    return ArrayCycleResult(l_ids, l_counts, sum_counts, g_ids, g_counts, delivered)


def check_invariants_arrays(res: ArrayCycleResult, config: TableConfig) -> None:
    """Post-cycle invariants: Sum is a counter column over the Snapshot's ids,
    and the one G-TopK table is placed and ordered."""
    check_sum_rows(res.snap_ids, res.snap_counts, res.sum_counts)
    check_gtopk_rows(res.g_ids, res.g_counts, config)


@dataclass
class ClusteredArrayResult:
    query_ids: np.ndarray
    query_counts: np.ndarray
    delivered: int
    phase_delivered: tuple[int, int, int]


def run_clustered_arrays(l_ids: np.ndarray, l_counts: np.ndarray, config: TableConfig,
                         clusters) -> ClusteredArrayResult:
    """Lossless clustered run over an (n, d, s) population, clustered as
    cluster.partition returns, every cycle checked; its Query is the one
    (d, s) table every switch ends the run holding."""
    tables = []
    p1 = 0
    for members in clusters:
        res = run_cycle_arrays(l_ids[list(members)], l_counts[list(members)], config)
        check_invariants_arrays(res, config)
        p1 += res.delivered
        tables.append((res.g_ids, res.g_counts))

    # phase 2: each representative's local table is its cluster's G-TopK
    rep_ids, rep_counts = map(np.stack, zip(*tables))
    res = run_cycle_arrays(rep_ids, rep_counts, config)
    check_invariants_arrays(res, config)
    p2 = res.delivered

    # phase 3: one replay rebuilds the representatives' table for every
    # other switch, and must reproduce it
    rebuilt_ids, rebuilt_counts = np.zeros((2, config.d, config.s), dtype=np.uint64)
    entries = replay_arrays(res.g_ids, res.g_counts, rebuilt_ids, rebuilt_counts, config)
    check_identical_rows(np.stack((res.g_ids, rebuilt_ids)),
                         np.stack((res.g_counts, rebuilt_counts)), "query")
    p3 = entries * (len(l_ids) - len(clusters))  # entries times the sum of |members| - 1
    return ClusteredArrayResult(res.g_ids, res.g_counts, p1 + p2 + p3, (p1, p2, p3))
