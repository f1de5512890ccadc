"""Array kernels for bulk simulation.

The object model in flowtable/precision/protocol is the readable reference
implementation; these kernels compute the same results over packed uint64
arrays so large configurations (hundreds of switches, millions of packets)
finish in seconds.

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
tests pin these functions against the object model's message-by-message
cycle.

Array layout: ids[d, s] and counts[d, s] per table, uint64 throughout.
A switch population is ids[n, d, s]. Empty slot is id 0, count 0.
"""

from __future__ import annotations

import numpy as np

from .flowtable import FieldOrder, MultiVectorTable, TableConfig, vector_hash_indices
from .precision import LocalTopKState, ingest

# Nothing is jitted; perfbench/run.py still records this in its environment.
HAVE_NUMBA = False


def ingest_arrays(ids, counts, seeds, mask, packets, rng_state):
    """Ingest packets into one switch's (d, s) arrays; returns (rng_state, recircs).

    The rows are fed through precision.ingest and the resulting table is
    written back in place. The returned RNG state is a plain int to pass to
    the next batch.
    """
    d, s = ids.shape
    if int(mask) != s - 1:
        raise ValueError(f"mask {int(mask)} does not match {s} slots")
    config = TableConfig(d=d, s=s, seeds=tuple(int(x) for x in seeds))
    table = MultiVectorTable(config, FieldOrder.ID_FIRST)
    table.ids = ids.tolist()
    table.counts = counts.tolist()
    state = LocalTopKState(table, int(rng_state))
    ingest(state, packets)
    ids[:] = table.ids
    counts[:] = table.counts
    return state.rng_state, state.recirculations


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
