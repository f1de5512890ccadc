"""Shared builders for the test suite.

full_table builds a fully occupied (d, s) table whose counts satisfy the
cross-vector (count, id) ordering rule: every vector-0 count dwarfs every
vector-1 count, so any entry's earlier-probe occupant is lexicographically
above it. Feeding such a table through a cycle preserves full occupancy,
which is what the closed-form message counts assume.
"""

from __future__ import annotations

import numpy as np

from nettopk.flowtable import vector_hash_indices
from nettopk.flowtable import FieldOrder, FlowEntry, MultiVectorTable, TableConfig
from nettopk.precision import ingest
from nettopk.protocol import SwitchState
from nettopk.workload import gen_zipf

COUNT_BASES = (2_000_000, 1_000)


def _cover_vector(seed: int, s: int, start_id: int, used: set) -> np.ndarray:
    """Distinct flow ids, one per slot, each hashing to its own slot."""
    mask = s - 1
    ids = np.zeros(s, dtype=np.uint64)
    filled = np.zeros(s, dtype=bool)
    next_id = start_id
    while not filled.all():
        cand = np.arange(next_id, next_id + 4 * s, dtype=np.uint64)
        next_id += 4 * s
        slots = vector_hash_indices(cand, seed, mask)
        for fid, j in zip(cand, slots):
            j = int(j)
            if not filled[j] and int(fid) not in used:
                filled[j] = True
                ids[j] = fid
                used.add(int(fid))
    return ids


def full_table(s: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Fully occupied d=2 arrays (ids, counts) obeying the ordering rule."""
    d = len(seeds)
    assert d <= len(COUNT_BASES)
    used: set = set()
    ids = np.zeros((d, s), dtype=np.uint64)
    counts = np.zeros((d, s), dtype=np.uint64)
    for i in range(d):
        ids[i] = _cover_vector(int(seeds[i]), s, 1, used)
        counts[i] = COUNT_BASES[i] + np.arange(s, dtype=np.uint64)
    return ids, counts


def table_from_arrays(config: TableConfig, ids: np.ndarray, counts: np.ndarray,
                      field_order: FieldOrder = FieldOrder.ID_FIRST) -> MultiVectorTable:
    t = MultiVectorTable(config, field_order)
    for i in range(config.d):
        for j in range(config.s):
            if ids[i][j]:
                t.set_entry(i, j, FlowEntry(int(ids[i][j]), int(counts[i][j])))
    return t


def switch_from_arrays(sid: int, config: TableConfig, ids: np.ndarray,
                       counts: np.ndarray) -> SwitchState:
    sw = SwitchState(sid, config, rng_seed=sid + 1)
    sw.l_topk.table = table_from_arrays(config, ids, counts)
    return sw


def table_to_arrays(t: MultiVectorTable) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array(t.ids, dtype=np.uint64),
        np.array(t.counts, dtype=np.uint64),
    )


def stacked_arrays(tables) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d, s) ids and counts of n tables, in order."""
    ids, counts = zip(*(table_to_arrays(t) for t in tables))
    return np.stack(ids), np.stack(counts)


def ingested_switches(n: int, config: TableConfig, stream_seed: int,
                      packets_per_switch: int = 1500, flows: int = 120) -> list[SwitchState]:
    """n switches with zipf traffic already accounted into their local tables."""
    switches = []
    for i in range(n):
        sw = SwitchState(i, config, rng_seed=1000 + stream_seed * 31 + i)
        tr = gen_zipf(1.0, packets_per_switch, flows, seed=stream_seed * 101 + i)
        ingest(sw.l_topk, tr.packets)
        switches.append(sw)
    return switches


def sorted_entries(t: MultiVectorTable) -> list[FlowEntry]:
    return sorted(t.entries())


def held_bytes(sw: SwitchState) -> int:
    """Bytes a switch's five tables hold at 4-byte fields: 4 * s per distinct
    id row and count row, so rows two tables share are counted once."""
    tables = (sw.l_topk.table, sw.snapshot, sw.sum, sw.g_topk, sw.query)
    rows = [row for t in tables for row in (*t.ids, *t.counts)]
    assert all(len(row) == sw.config.s for row in rows)
    return 4 * sw.config.s * len({id(row) for row in rows})
