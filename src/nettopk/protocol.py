"""Per-switch protocol state machine for network-wide top-k agreement.

Each switch keeps five tables. L-TopK tracks the switch's own traffic
continuously. A cycle freezes it into Snapshot, accumulates network-wide
counts for those flows into Sum (aggregation round), then lets every
switch's Sum entries compete slot-by-slot into G-TopK (consolidation
round). Query is the stable copy of G-TopK served between cycles.

Both rounds are single forward passes per message with fixed field order
(IDs before counts in aggregation, counts before IDs in consolidation),
so they are legal in a feed-forward pipeline without recirculation.

The consolidation walk orders slots by (count, id) lexicographically;
together with exactly-once delivery this makes the final G-TopK identical
on every switch regardless of message interleaving. check_cycle_invariants
verifies that agreement, the per-vector ordering, duplicate freedom, and
sum consistency after every simulated cycle.

run_cycle drives the object model through a simulated transport (any
delivery order, optional loss), message by message; a delivery can end a
round only at its receiver, so only the receiver is checked for
completion. run_cycle_arrays is the
lossless bulk equivalent for large configurations: it relies on that order
independence to compute G-TopK once in closed form and copy it to every
switch. Differential tests pin the two to identical tables and delivery
counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from . import _kernels
from .flowtable import (
    EMPTY_ID,
    AccessLog,
    FieldOrder,
    FlowEntry,
    MultiVectorTable,
    TableConfig,
    hash_index,
    snapshot_copy,
    table_entries,
    vector_hash_indices,
)
from .precision import LocalTopKState


class RoundPhase(Enum):
    IDLE = "idle"
    AGGREGATION = "aggregation"
    CONSOLIDATION = "consolidation"


class Round(IntEnum):
    AGG = 0
    CONS = 1


class PhaseError(Exception):
    """An operation was invoked outside its allowed round phase."""


class InvariantError(AssertionError):
    """A protocol invariant failed; message carries a table diagnostic."""


def consolidate_into(
    table: MultiVectorTable, pid: int, pcount: int, log: AccessLog | None = None
) -> None:
    """Walk one (id, count) pair through a COUNT_FIRST table.

    At each vector the pair probes its slot. A larger count evicts the
    occupant (which the pair then carries onward; evicting an empty slot
    ends the walk). Equal count and equal id ends the walk. Equal count
    with a larger id swaps the stored id and carries the smaller one.
    Otherwise the slot is untouched and the pair moves on. A pair still
    carried past the last vector is discarded.
    """
    config = table.config
    for i in range(config.d):
        j = hash_index(config, i, pid)
        scount = table.read_count(i, j, log)
        if pcount > scount:
            table.write_count(i, j, pcount, log)
            sid = table.read_id(i, j, log)
            table.write_id(i, j, pid, log)
            if sid == EMPTY_ID:
                return
            pid = sid
            pcount = scount
        elif pcount == scount:
            sid = table.read_id(i, j, log)
            if sid == pid:
                return
            if pid > sid:
                table.write_id(i, j, pid, log)
                pid = sid


class SwitchState:
    """One switch: five tables plus the current round phase."""

    def __init__(self, switch_id: int, config: TableConfig, rng_seed: int) -> None:
        if not 0 <= switch_id <= 0xFFFF:
            raise ValueError("switch_id must fit in 16 bits")
        self.switch_id = switch_id
        self.config = config
        self.l_topk = LocalTopKState.create(config, rng_seed)
        self.snapshot = MultiVectorTable(config, FieldOrder.ID_FIRST)
        self.sum = MultiVectorTable(config, FieldOrder.ID_FIRST)
        self.g_topk = MultiVectorTable(config, FieldOrder.COUNT_FIRST)
        self.query = MultiVectorTable(config, FieldOrder.ID_FIRST)
        self.phase = RoundPhase.IDLE

    def _require(self, phase: RoundPhase, op: str) -> None:
        if self.phase is not phase:
            raise PhaseError(f"{op} requires {phase.value}, switch {self.switch_id} is in {self.phase.value}")

    def begin_cycle(self, source: MultiVectorTable | None = None) -> None:
        """Freeze the local table (or an explicit source) and open aggregation."""
        self._require(RoundPhase.IDLE, "begin_cycle")
        src = source if source is not None else self.l_topk.table
        self.snapshot = snapshot_copy(src, FieldOrder.ID_FIRST)
        self.sum = snapshot_copy(self.snapshot, FieldOrder.ID_FIRST)
        self.g_topk = MultiVectorTable(self.config, FieldOrder.COUNT_FIRST)
        self.phase = RoundPhase.AGGREGATION

    def handle_aggregation_packet(self, sender: int, entry: FlowEntry, log: AccessLog | None = None) -> None:
        """Add a received count to Sum where Snapshot holds the same id."""
        self._require(RoundPhase.AGGREGATION, "handle_aggregation_packet")
        assert sender != self.switch_id
        fid = entry.id
        for i in range(self.config.d):
            j = hash_index(self.config, i, fid)
            if self.snapshot.read_id(i, j, log) == fid:
                c = self.sum.read_count(i, j, log)
                self.sum.write_count(i, j, c + entry.count, log)
                return
        # id not local: disregarded

    def end_aggregation(self) -> None:
        """Freeze Sum, enter consolidation, and feed own Sum entries first."""
        self._require(RoundPhase.AGGREGATION, "end_aggregation")
        self.phase = RoundPhase.CONSOLIDATION
        for e in self.sum.entries():
            consolidate_into(self.g_topk, e.id, e.count)

    def handle_consolidation_packet(self, sender: int, entry: FlowEntry, log: AccessLog | None = None) -> None:
        self._require(RoundPhase.CONSOLIDATION, "handle_consolidation_packet")
        assert sender != self.switch_id
        consolidate_into(self.g_topk, entry.id, entry.count, log)

    def end_consolidation(self) -> None:
        self._require(RoundPhase.CONSOLIDATION, "end_consolidation")
        self.query = snapshot_copy(self.g_topk, FieldOrder.ID_FIRST)
        self.phase = RoundPhase.IDLE

    def query_flow(self, flow_id: int) -> int | None:
        """Stored global count for flow_id in the Query table, else None."""
        for i in range(self.config.d):
            j = hash_index(self.config, i, flow_id)
            if self.query.read_id(i, j) == flow_id:
                return self.query.read_count(i, j)
        return None


def _slot_reader(table: MultiVectorTable):
    """Re-readable access to a static table's entries by emission index.

    Retransmissions call this again instead of buffering the payload, which
    is why the source tables must stay static during their round.
    """
    coords = [
        (i, j)
        for i in range(table.config.d)
        for j in range(table.config.s)
        if table.ids[i][j] != EMPTY_ID
    ]

    def read(seq: int) -> FlowEntry:
        i, j = coords[seq]
        return FlowEntry(table.ids[i][j], table.counts[i][j])

    return read, len(coords)


@dataclass
class CycleStats:
    delivered: int
    dropped: int


def run_cycle(switches, net) -> CycleStats:
    """Drive one full cycle over a transport until every switch is idle."""
    for sw in switches:
        sw.begin_cycle()
    return run_rounds(switches, net)


def run_rounds(switches, net) -> CycleStats:
    """Broadcast the switches' snapshots and deliver both rounds until idle.

    Each switch must already have begun its cycle, from its local table or
    from an explicit source.
    """
    sws = {sw.switch_id: sw for sw in switches}
    assert set(sws) == set(net.participants), "transport participants mismatch"
    base_delivered = net.delivered_count
    base_dropped = net.dropped_count
    for sw in sws.values():
        reader, count = _slot_reader(sw.snapshot)
        net.broadcast(sw.switch_id, Round.AGG, reader, count)
    _advance(sws, net, sws)
    while (ev := net.step()) is not None:
        delivered, msg = ev
        if delivered:
            sw = sws[msg.receiver]
            if msg.round_key is Round.AGG:
                sw.handle_aggregation_packet(msg.sender, msg.entry)
            else:
                sw.handle_consolidation_packet(msg.sender, msg.entry)
            _advance(sws, net, (msg.receiver,))
    for sw in sws.values():
        assert sw.phase is RoundPhase.IDLE, f"switch {sw.switch_id} stuck in {sw.phase}"
    return CycleStats(
        delivered=net.delivered_count - base_delivered,
        dropped=net.dropped_count - base_dropped,
    )


def _advance(sws, net, todo) -> None:
    """End the round of each switch in todo whose round is complete.

    A (receiver, round) completes only when a message is delivered to the
    receiver or a peer registers a zero-entry broadcast to it. So run_rounds
    checks every switch once after the AGG broadcasts, and then only the
    receiver of each delivery. A switch that ends aggregation re-checks
    itself (its peers' CONS broadcasts to it may all have been empty) and,
    if its own CONS broadcast is empty, its peers. todo is first in, first
    out, so CONS broadcasts are registered in the order AGG rounds complete.
    """
    todo = deque(todo)
    while todo:
        sw = sws[todo.popleft()]
        if sw.phase is RoundPhase.AGGREGATION and net.round_complete(sw.switch_id, Round.AGG):
            sw.end_aggregation()
            reader, count = _slot_reader(sw.sum)
            net.broadcast(sw.switch_id, Round.CONS, reader, count, requires=Round.AGG)
            todo.append(sw.switch_id)
            if count == 0:
                todo.extend(p for p in sws if p != sw.switch_id)
        elif sw.phase is RoundPhase.CONSOLIDATION and net.round_complete(sw.switch_id, Round.CONS):
            sw.end_consolidation()


# Invariant checks, object form.


def _dump(table: MultiVectorTable, limit: int = 12) -> str:
    items = table_entries(table)[:limit]
    return ", ".join(f"({e.id}:{e.count})" for e in items)


def check_sum_agreement(switches) -> None:
    """Every Sum count equals the network-wide total of Snapshot counts for that id."""
    totals: dict[int, int] = {}
    for sw in switches:
        for e in sw.snapshot.entries():
            totals[e.id] = totals.get(e.id, 0) + e.count
    for sw in switches:
        for e in sw.sum.entries():
            if e.count != totals[e.id]:
                raise InvariantError(
                    f"sum disagreement on switch {sw.switch_id}: flow {e.id} has {e.count}, "
                    f"network total {totals[e.id]}; sum=[{_dump(sw.sum)}]"
                )


def check_gtopk_ordering(table: MultiVectorTable) -> None:
    """Each entry is lexicographically below the occupants of its earlier probes."""
    config = table.config
    for i in range(config.d):
        for j in range(config.s):
            fid = table.ids[i][j]
            if fid == EMPTY_ID:
                continue
            key = (table.counts[i][j], fid)
            for earlier in range(i):
                j2 = hash_index(config, earlier, fid)
                other = (table.counts[earlier][j2], table.ids[earlier][j2])
                if not other > key:
                    raise InvariantError(
                        f"vector ordering broken: ({i},{j})={key} vs ({earlier},{j2})={other}"
                    )


def check_no_duplicate_pairs(table: MultiVectorTable) -> None:
    pairs = table_entries(table)
    if len(pairs) != len(set(pairs)):
        raise InvariantError(f"duplicate pairs in table: [{_dump(table, 32)}]")


def check_identical_tables(switches, attr: str) -> None:
    ref_sw = switches[0]
    ref = getattr(ref_sw, attr)
    for sw in switches[1:]:
        t = getattr(sw, attr)
        if not ref.equals(t):
            raise InvariantError(
                f"{attr} differs between switches {ref_sw.switch_id} and {sw.switch_id}: "
                f"[{_dump(ref)}] vs [{_dump(t)}]"
            )


def check_cycle_invariants(switches) -> None:
    """Full post-cycle invariant suite over a list of switches."""
    switches = list(switches)
    check_sum_agreement(switches)
    for sw in switches:
        check_gtopk_ordering(sw.g_topk)
        check_no_duplicate_pairs(sw.g_topk)
        sw.g_topk.check_placement()
    check_identical_tables(switches, "g_topk")
    check_identical_tables(switches, "query")


# Array engine: same cycle over packed uint64 arrays.


@dataclass
class ArrayCycleResult:
    snap_ids: np.ndarray
    snap_counts: np.ndarray
    sum_counts: np.ndarray
    g_ids: np.ndarray
    g_counts: np.ndarray
    delivered: int


def run_cycle_arrays(l_ids: np.ndarray, l_counts: np.ndarray, seeds: np.ndarray, mask) -> ArrayCycleResult:
    """One lossless cycle over an (n, d, s) switch population."""
    snap_ids = l_ids.copy()
    snap_counts = l_counts.copy()
    sum_counts = snap_counts.copy()
    delivered = int(_kernels.aggregate_arrays(snap_ids, snap_counts, sum_counts, seeds, mask))
    g_ids = np.zeros_like(snap_ids)
    g_counts = np.zeros_like(snap_counts)
    delivered += int(
        _kernels.consolidate_arrays(snap_ids, sum_counts, g_ids, g_counts, seeds, mask)
    )
    return ArrayCycleResult(snap_ids, snap_counts, sum_counts, g_ids, g_counts, delivered)


def check_invariants_arrays(res: ArrayCycleResult, seeds: np.ndarray, mask) -> None:
    """Vectorized post-cycle invariant suite for the array engine."""
    n, d, s = res.snap_ids.shape
    if not ((res.g_ids == res.g_ids[0]).all() and (res.g_counts == res.g_counts[0]).all()):
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
    g_ids0 = res.g_ids[0]
    g_counts0 = res.g_counts[0]
    for i in range(d):
        occupied = g_ids0[i] != 0
        home = vector_hash_indices(g_ids0[i][occupied], int(seeds[i]), int(mask))
        if not (home == np.nonzero(occupied)[0]).all():
            raise InvariantError(f"g_topk entry misplaced in vector {i}")
        if g_counts0[i][~occupied].any():
            raise InvariantError(f"empty g_topk slot in vector {i} carries a count")
    for i in range(1, d):
        occupied = g_ids0[i] != 0
        ids_i = g_ids0[i][occupied]
        counts_i = g_counts0[i][occupied]
        for earlier in range(i):
            j2 = vector_hash_indices(ids_i, int(seeds[earlier]), int(mask))
            e_counts = g_counts0[earlier][j2]
            e_ids = g_ids0[earlier][j2]
            above = (e_counts > counts_i) | ((e_counts == counts_i) & (e_ids > ids_i))
            if not above.all():
                raise InvariantError(f"vector ordering broken between vectors {earlier} and {i}")
    occ = g_ids0 != 0
    pairs = np.stack([g_ids0[occ], g_counts0[occ]], axis=1)
    if len(np.unique(pairs, axis=0)) != len(pairs):
        raise InvariantError("duplicate (id, count) pairs in g_topk")
