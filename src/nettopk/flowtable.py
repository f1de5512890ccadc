"""Fixed-shape multi-vector hash tables and a pipeline-order access checker.

Every table in the simulator is a MultiVectorTable: d vectors of s slots,
each vector indexed by its own seeded hash of the flow ID. All tables in
one simulation share the same seeds, so a flow probes the same slot
coordinates in every table on every switch.

Slot (id=0, count=0) is the empty sentinel; traces never contain flow ID 0.
vector_hash_indices is hash_index over a numpy array of flow IDs, for bulk
ingest and the array engine. A SlotMap holds the slot indices of every id
in a set of tables, hashed once, for the object model's message handlers.

Both engines run the post-cycle invariant checks written here in numpy, on
rows given as arrays or nested lists: placement, a valid G-TopK table, Sum
agreement and identical tables. A message names the slot or the switch.

The AccessLog mechanizes the feed-forward constraint of a switch pipeline:
stages (vectors) are traversed in order, and within a stage the two fields
live in distinct ALUs whose order is fixed per table. A recorded access
sequence that would require moving backwards is rejected by verify().
Operations are written once, on a table's rows; logged_rows gives them
views of the rows that record each slot access to a log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from typing import Iterator, NamedTuple

import numpy as np

EMPTY_ID = 0
EMPTY_COUNT = 0

_MASK32 = 0xFFFFFFFF


def mix32(x: int) -> int:
    """Avalanche a 32-bit integer (murmur3 finalizer)."""
    x &= _MASK32
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & _MASK32
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & _MASK32
    x ^= x >> 16
    return x


class FieldOrder(Enum):
    """Which field of a slot the pipeline reaches first."""

    ID_FIRST = "id_first"
    COUNT_FIRST = "count_first"


class Field(Enum):
    ID = "id"
    COUNT = "count"


class Mode(Enum):
    READ = "read"
    WRITE = "write"


class FlowEntry(NamedTuple):
    """An (id, count) pair, the unit stored in tables and sent on the wire."""

    id: int
    count: int


class PipelineOrderError(Exception):
    """An access sequence violated feed-forward stage order."""


class InvariantError(AssertionError):
    """A table invariant failed; the message names the slot or the switch."""


@dataclass(frozen=True)
class TableConfig:
    """Shape and hashing of a table: d vectors of s slots, one seed per vector.

    s must be a power of two so the hash reduces by masking. The same config
    is shared by every table on every switch in a simulation.
    """

    d: int
    s: int
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.s < 1 or (self.s & (self.s - 1)) != 0:
            raise ValueError("s must be a power of two >= 1")
        if len(self.seeds) != self.d:
            raise ValueError("need exactly one seed per vector")
        object.__setattr__(self, "seeds", tuple(int(x) & _MASK32 for x in self.seeds))


def hash_index(config: TableConfig, vector_i: int, flow_id: int) -> int:
    """Slot index of flow_id in vector vector_i: mix32(id ^ seed) masked to s."""
    if not 0 <= vector_i < config.d:
        raise ValueError(f"vector index {vector_i} out of range for d={config.d}")
    if flow_id == EMPTY_ID:
        raise ValueError(f"flow id {EMPTY_ID} is the empty-slot sentinel")
    return mix32(flow_id ^ config.seeds[vector_i]) & (config.s - 1)


def mix32_array(ids: np.ndarray, seed: int) -> np.ndarray:
    """mix32(id ^ seed) of every flow ID, as a new uint64 array.

    Every step after the copy runs in place: callers hash trace-length
    arrays, where a temporary per step would set the process's peak memory.
    """
    m32 = np.uint64(_MASK32)
    x = ids.astype(np.uint64)
    x ^= np.uint64(seed & _MASK32)
    x &= m32
    x ^= x >> np.uint64(16)
    x *= np.uint64(0x85EBCA6B)
    x &= m32
    x ^= x >> np.uint64(13)
    x *= np.uint64(0xC2B2AE35)
    x &= m32
    x ^= x >> np.uint64(16)
    return x


def vector_hash_indices(ids: np.ndarray, seed: int, mask: int) -> np.ndarray:
    """hash_index of every flow ID in an array, for the vector with this seed."""
    x = mix32_array(ids, seed)
    x &= np.uint64(mask)
    return x.view(np.int64)


class SlotMap(dict):
    """Flow id -> tuple of its slot index in each vector.

    Built over the ids held by some tables, hashed in bulk with
    vector_hash_indices; an id none of them holds is hashed with hash_index
    on each lookup and not stored, so an empty SlotMap hashes every id.
    """

    __slots__ = ("config",)

    def __init__(self, config: TableConfig, tables=()) -> None:
        super().__init__()
        self.config = config
        ids = {fid for t in tables for row in t.ids for fid in row}
        ids.discard(EMPTY_ID)
        if ids:
            ids = list(ids)
            arr = np.array(ids, dtype=np.uint64)
            cols = [vector_hash_indices(arr, seed, config.s - 1).tolist() for seed in config.seeds]
            self.update(zip(ids, zip(*cols)))

    def __missing__(self, fid: int) -> tuple[int, ...]:
        return tuple(hash_index(self.config, i, fid) for i in range(self.config.d))


# Each check raises on its first offender: `for ... in offenders[:1]: raise`.


def _rows(ids, counts) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(ids, dtype=np.uint64), np.asarray(counts, dtype=np.uint64)


def check_placement_rows(ids, counts, config: TableConfig, name: str = "table") -> None:
    """Every entry of a (d, s) table sits at its hash index; empty slots count 0."""
    ids, counts = _rows(ids, counts)
    for i, seed in enumerate(config.seeds):
        held = np.flatnonzero(ids[i])
        for j in held[vector_hash_indices(ids[i, held], seed, config.s - 1) != held][:1]:
            raise InvariantError(f"{name} entry {ids[i, j]} misplaced at ({i}, {j})")
    for i, j in np.argwhere((ids == EMPTY_ID) & (counts != EMPTY_COUNT))[:1]:
        raise InvariantError(f"empty {name} slot ({i}, {j}) carries count {counts[i, j]}")


def check_gtopk_rows(ids, counts, config: TableConfig) -> None:
    """A (d, s) G-TopK table is placed, holds each (id, count) pair once, and
    each entry is below, in (count, id) order, the earlier slots it probes.

    This order lets each check fail: a pair twice in one vector is also
    misplaced, and a pair in two vectors also breaks the ordering.
    """
    ids, counts = _rows(ids, counts)
    check_placement_rows(ids, counts, config, "g_topk")
    vec, slot = np.nonzero(ids)
    order = np.lexsort((ids[vec, slot], counts[vec, slot]))
    vec, slot = vec[order], slot[order]
    pid, pcount = ids[vec, slot], counts[vec, slot]
    for a in np.flatnonzero((pid[1:] == pid[:-1]) & (pcount[1:] == pcount[:-1]))[:1]:
        raise InvariantError(f"duplicate g_topk pair ({pid[a]}, {pcount[a]}) at "
                             f"({vec[a]}, {slot[a]}) and ({vec[a + 1]}, {slot[a + 1]})")
    for i in range(1, config.d):
        held = np.flatnonzero(ids[i])
        fid, fcount = ids[i, held], counts[i, held]
        for e in range(i):
            j = vector_hash_indices(fid, config.seeds[e], config.s - 1)
            below = (counts[e, j] > fcount) | ((counts[e, j] == fcount) & (ids[e, j] > fid))
            for a in np.flatnonzero(~below)[:1]:
                raise InvariantError(f"g_topk ordering broken: ({i}, {held[a]}) is not below "
                                     f"its probe ({e}, {j[a]})")


def check_sum_rows(snap_ids, snap_counts, sum_counts, switch_ids=None) -> None:
    """Over an (n, d, s) population, every occupied Sum slot counts its
    Snapshot slot's id's total over all Snapshots. Sum is a counter column
    over the Snapshot's ids, so it has no ids of its own to check."""
    snap_ids, snap_counts = _rows(snap_ids, snap_counts)
    sum_counts = np.asarray(sum_counts, dtype=np.uint64)
    names = switch_ids or range(len(snap_ids))
    held = snap_ids != EMPTY_ID
    uniq, inverse = np.unique(snap_ids[held], return_inverse=True)
    totals = np.zeros(len(uniq), dtype=np.uint64)
    np.add.at(totals, inverse, snap_counts[held])
    expect = np.zeros_like(sum_counts)
    expect[held] = totals[inverse]
    for k, i, j in np.argwhere(held & (sum_counts != expect))[:1]:
        raise InvariantError(f"sum disagreement at ({i}, {j}) on switch {names[k]}: flow "
                             f"{snap_ids[k, i, j]} has {sum_counts[k, i, j]}, total {expect[k, i, j]}")


def check_identical_rows(ids, counts, name: str, switch_ids=None) -> None:
    """Every switch of an (n, d, s) population holds the same table."""
    ids, counts = _rows(ids, counts)
    names = switch_ids or range(len(ids))
    for k, i, j in np.argwhere((ids != ids[0]) | (counts != counts[0]))[:1]:
        raise InvariantError(f"{name} tables diverged: switch {names[k]} differs from "
                             f"switch {names[0]} at ({i}, {j})")


# AccessLog entries: (vector, Field, Mode) tuples, or the RECIRCULATE marker.
RECIRCULATE = "recirculate"


@dataclass
class AccessLog:
    """Ordered record of slot-field accesses made by one pipeline operation.

    verify(field_order) checks that accesses only move forward: vector
    indices never decrease, and within one vector the first-order field is
    never touched after the second-order field. recirculate() marks the
    start of a fresh pass, resetting the position.
    """

    records: list = field(default_factory=list)

    def record(self, vector: int, f: Field, mode: Mode) -> None:
        self.records.append((vector, f, mode))

    def recirculate(self) -> None:
        self.records.append(RECIRCULATE)

    @property
    def recirculations(self) -> int:
        return sum(1 for r in self.records if r is RECIRCULATE)

    def verify(self, field_order: FieldOrder) -> None:
        """Raise PipelineOrderError if the log is not a legal forward pass."""
        first = Field.ID if field_order is FieldOrder.ID_FIRST else Field.COUNT
        pos = (-1, -1)
        for rec in self.records:
            if rec is RECIRCULATE:
                pos = (-1, -1)
                continue
            vector, f, _mode = rec
            phase = 0 if f is first else 1
            here = (vector, phase)
            if here < pos:
                raise PipelineOrderError(
                    f"access to vector {vector} {f.value} after position {pos}"
                )
            pos = here


class _LoggedRow:
    """Vector i's row of one field; each read and write of a slot records
    (i, field, READ or WRITE) to the log."""

    __slots__ = ("row", "vector", "field", "log")

    def __init__(self, row: list, vector: int, f: Field, log: AccessLog) -> None:
        self.row, self.vector, self.field, self.log = row, vector, f, log

    def __getitem__(self, j: int) -> int:
        self.log.record(self.vector, self.field, Mode.READ)
        return self.row[j]

    def __setitem__(self, j: int, value: int) -> None:
        self.log.record(self.vector, self.field, Mode.WRITE)
        self.row[j] = value


def logged_rows(table: "MultiVectorTable", log: AccessLog | None = None) -> tuple:
    """(ids, counts): the table's rows, indexed [vector][slot]. With a log,
    views of them that record each slot read and write as a (vector, Field,
    Mode) tuple, so one operation, written on rows, also proves its order."""
    if log is None:
        return table.ids, table.counts
    ids = [_LoggedRow(row, i, Field.ID, log) for i, row in enumerate(table.ids)]
    counts = [_LoggedRow(row, i, Field.COUNT, log) for i, row in enumerate(table.counts)]
    return ids, counts


class MultiVectorTable:
    """d x s slots of FlowEntry with per-vector seeded hashing.

    ids[i][j] and counts[i][j] are slot j of vector i. Operations work on
    these rows, through logged_rows when they record an AccessLog to prove
    they respect pipeline order. Placement at the hash index is the
    caller's contract, checkable after the fact with check_placement().
    """

    __slots__ = ("config", "field_order", "ids", "counts")

    def __init__(self, config: TableConfig, field_order: FieldOrder) -> None:
        self.config = config
        self.field_order = field_order
        self.ids = [[EMPTY_ID] * config.s for _ in range(config.d)]
        self.counts = [[EMPTY_COUNT] * config.s for _ in range(config.d)]

    def set_entry(self, vector: int, index: int, entry: FlowEntry) -> None:
        """Place an entry directly (test and copy plumbing, not a pipeline op)."""
        self.ids[vector][index] = entry.id
        self.counts[vector][index] = entry.count

    def entries(self) -> Iterator[FlowEntry]:
        """Non-empty entries, vector-major then index order."""
        # an empty slot's id, 0, is false; tuple.__new__ builds each
        # FlowEntry in C, where FlowEntry(fid, count) runs Python code
        return chain.from_iterable(
            map(tuple.__new__, repeat(FlowEntry), zip(compress(ids_i, ids_i), compress(counts_i, ids_i)))
            for ids_i, counts_i in zip(self.ids, self.counts)
        )

    def occupancy(self) -> int:
        return sum(1 for _ in self.entries())

    def check_placement(self) -> None:
        """Raise InvariantError unless check_placement_rows holds."""
        check_placement_rows(self.ids, self.counts, self.config)

    def equals(self, other: "MultiVectorTable") -> bool:
        return self.ids == other.ids and self.counts == other.counts


def snapshot_copy(src: MultiVectorTable, field_order: FieldOrder | None = None) -> MultiVectorTable:
    """Deep, isolated copy of src; optionally with a different field order."""
    out = MultiVectorTable(src.config, field_order or src.field_order)
    out.ids = [row[:] for row in src.ids]
    out.counts = [row[:] for row in src.counts]
    return out


def memory_bytes(config: TableConfig, id_bytes: int, count_bytes: int) -> int:
    """Exact size of one table at the given per-field widths."""
    return config.d * config.s * (id_bytes + count_bytes)
