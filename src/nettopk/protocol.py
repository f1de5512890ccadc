"""Per-switch protocol state machine for network-wide top-k agreement.

Each switch keeps five tables, the 36·d·s bytes cli.node_memory_bytes
charges, and no other. L-TopK tracks the switch's own traffic continuously.
A cycle freezes it into Snapshot, accumulates network-wide counts for those
flows into Sum, a counter column over the Snapshot's ids (aggregation
round), then lets every switch's Sum entries compete slot-by-slot into
G-TopK (consolidation round). Query is the stable copy of G-TopK served
between cycles. begin_install opens consolidation alone, for a rebuild.

Both rounds are single forward passes per message with fixed field order
(IDs before counts in aggregation, counts before IDs in consolidation),
so they are legal in a feed-forward pipeline without recirculation.

The consolidation walk orders slots by (count, id) lexicographically;
together with exactly-once delivery this makes the final G-TopK identical
on every switch regardless of message interleaving. check_cycle_invariants
runs flowtable's post-cycle checks, shared with the bulk engine, on the
switches' tables after every simulated cycle.

run_cycle drives the object model through a simulated transport (any
delivery order, optional loss), message by message: the transport's step
calls each switch's handler for its deliveries. A delivery can end a round
only at its receiver, and step returns at each delivery that does, so
run_rounds checks a switch for completion only after such a delivery,
never after the others. Every id a cycle's messages carry is hashed once,
into a SlotMap that all participants share.

The handlers and consolidate_into work on table rows, ids[i][j] and
counts[i][j]. Given an AccessLog, they run over flowtable.logged_rows
views, which record each access, to prove the pipeline order.
"""

from __future__ import annotations

from collections import deque
from copy import copy
from dataclasses import dataclass
from enum import Enum, IntEnum

from .flowtable import (
    EMPTY_ID,
    AccessLog,
    FlowEntry,
    InvariantError,
    MultiVectorTable,
    SlotMap,
    TableConfig,
    check_gtopk_rows,
    check_identical_rows,
    check_sum_rows,
    logged_rows,
    snapshot_copy,
)
from .precision import LocalTopKState

# switch ids travel in a 16-bit wire field
MAX_SWITCHES = 1 << 16


class RoundPhase(Enum):
    IDLE = "idle"
    AGGREGATION = "aggregation"
    CONSOLIDATION = "consolidation"


class Round(IntEnum):
    AGG = 0
    CONS = 1


class PhaseError(Exception):
    """An operation was invoked outside its allowed round phase."""


def consolidate_into(
    table: MultiVectorTable,
    pid: int,
    pcount: int,
    log: AccessLog | None = None,
    slots: SlotMap | None = None,
) -> None:
    """Walk one (id, count) pair through a COUNT_FIRST table.

    At each vector the pair probes its slot. A larger count evicts the
    occupant (which the pair then carries onward; evicting an empty slot
    ends the walk). Equal count and equal id ends the walk. Equal count
    with a larger id swaps the stored id and carries the smaller one.
    Otherwise the slot is untouched and the pair moves on. A pair still
    carried past the last vector is discarded.

    slots maps each id the walk carries, the pair's or one it evicts from
    the table, to its slot indices; without it, each id is hashed as it
    comes.
    """
    if slots is None:
        slots = SlotMap(table.config)
    ids, counts = logged_rows(table, log)
    for i in range(table.config.d):
        j = slots[pid][i]
        ids_i = ids[i]
        counts_i = counts[i]
        scount = counts_i[j]
        if pcount > scount:
            counts_i[j] = pcount
            sid = ids_i[j]
            ids_i[j] = pid
            if sid == EMPTY_ID:
                return
            pid = sid
            pcount = scount
        elif pcount == scount:
            sid = ids_i[j]
            if sid == pid:
                return
            if pid > sid:
                ids_i[j] = pid
                pid = sid


class SwitchState:
    """One switch: five tables plus the current round phase."""

    def __init__(self, switch_id: int, config: TableConfig, rng_seed: int) -> None:
        if not 0 <= switch_id < MAX_SWITCHES:
            raise ValueError("switch_id must fit in 16 bits")
        self.switch_id = switch_id
        self.config = config
        self.l_topk = LocalTopKState.create(config, rng_seed)
        self._freeze(self.l_topk.table)
        self.g_topk = MultiVectorTable(config)
        self.query = MultiVectorTable(config)
        # slot indices of ids; a cycle or an install shares one map of the
        # ids its messages carry among the participants until they end it
        self.slots = SlotMap(config)
        self.phase = RoundPhase.IDLE

    def _require(self, phase: RoundPhase, op: str) -> None:
        if self.phase is not phase:
            raise PhaseError(f"{op} requires {phase.value}, switch {self.switch_id} is in {self.phase.value}")

    def _freeze(self, src: MultiVectorTable) -> None:
        """Copy src into Snapshot and its counts into Sum, a counter column
        over the Snapshot's id rows, which it shares."""
        self.snapshot = snapshot_copy(src)
        self.sum = copy(self.snapshot)
        self.sum.counts = [row[:] for row in src.counts]

    def begin_cycle(self, source: MultiVectorTable | None = None) -> None:
        """Freeze the local table (or an explicit source) and open aggregation."""
        self._require(RoundPhase.IDLE, "begin_cycle")
        self._freeze(source if source is not None else self.l_topk.table)
        self.g_topk = MultiVectorTable(self.config)
        self.phase = RoundPhase.AGGREGATION

    def begin_install(self, slots: SlotMap) -> None:
        """Empty G-TopK and open consolidation alone, to rebuild a table
        whose entries arrive over the transport; slots maps their ids."""
        self._require(RoundPhase.IDLE, "begin_install")
        self.g_topk = MultiVectorTable(self.config)
        self.slots = slots
        self.phase = RoundPhase.CONSOLIDATION

    def handle_aggregation_packet(self, sender: int, entry: FlowEntry, log: AccessLog | None = None) -> None:
        """Add a received count to Sum where Snapshot holds the same id."""
        self._require(RoundPhase.AGGREGATION, "handle_aggregation_packet")
        if sender == self.switch_id:
            raise InvariantError(f"switch {sender} received its own packet")
        fid = entry.id
        snap_ids, sum_counts = logged_rows(self.sum, log)
        for i, j in enumerate(self.slots[fid]):
            if snap_ids[i][j] == fid:
                sum_counts[i][j] += entry.count
                return
        # id not local: disregarded

    def end_aggregation(self) -> None:
        """Freeze Sum, enter consolidation, and feed own Sum entries first."""
        self._require(RoundPhase.AGGREGATION, "end_aggregation")
        self.phase = RoundPhase.CONSOLIDATION
        for e in self.sum.entries():
            consolidate_into(self.g_topk, e.id, e.count, slots=self.slots)

    def handle_consolidation_packet(self, sender: int, entry: FlowEntry, log: AccessLog | None = None) -> None:
        self._require(RoundPhase.CONSOLIDATION, "handle_consolidation_packet")
        if sender == self.switch_id:
            raise InvariantError(f"switch {sender} received its own packet")
        consolidate_into(self.g_topk, entry.id, entry.count, log, self.slots)

    def end_consolidation(self) -> None:
        """Publish G-TopK as Query and drop the cycle's or install's SlotMap."""
        self._require(RoundPhase.CONSOLIDATION, "end_consolidation")
        self.query = snapshot_copy(self.g_topk)
        self.slots = SlotMap(self.config)
        self.phase = RoundPhase.IDLE

    def query_flow(self, flow_id: int) -> int | None:
        """Stored global count for flow_id in the Query table, else None."""
        for i, j in enumerate(self.slots[flow_id]):
            if self.query.ids[i][j] == flow_id:
                return self.query.counts[i][j]
        return None


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
    from an explicit source. Every id a message or a consolidation walk
    carries sits in some participant's Snapshot, so one SlotMap over the
    Snapshots, shared by all participants, hashes each id once. Each
    switch drops it when it ends consolidation. The network's counts are
    the cycle's: a used network raises at its first broadcast.
    """
    sws = {sw.switch_id: sw for sw in switches}
    if set(sws) != set(net.participants):
        raise InvariantError("transport participants mismatch")
    slots = SlotMap(next(iter(sws.values())).config, [sw.snapshot for sw in sws.values()])
    for sw in sws.values():
        sw.slots = slots
    handlers = {}
    for sid, sw in sws.items():
        handlers[sid, Round.AGG] = sw.handle_aggregation_packet
        handlers[sid, Round.CONS] = sw.handle_consolidation_packet
    for sw in sws.values():
        net.broadcast(sw.switch_id, Round.AGG, list(sw.snapshot.entries()))
    _advance(sws, net, sws)
    while (receiver := net.step(handlers)) is not None:
        _advance(sws, net, (receiver,))
    for sw in sws.values():
        if sw.phase is not RoundPhase.IDLE:
            raise InvariantError(f"switch {sw.switch_id} stuck in {sw.phase.value}")
    return CycleStats(delivered=net.delivered_count, dropped=net.dropped_count)


def _advance(sws, net, todo) -> None:
    """End the round of each switch in todo whose round is complete.

    A (receiver, round) completes only when a message is delivered to the
    receiver or a peer registers a zero-entry broadcast to it. So run_rounds
    checks every switch once after the AGG broadcasts, and then only the
    receiver of a delivery that completed its round, which the transport's
    step returns. A switch that ends aggregation re-checks itself (its
    peers' CONS broadcasts to it may all have been empty) and, if its own
    CONS broadcast is empty, its peers.
    todo is first in, first out, so CONS broadcasts are registered in the
    order AGG rounds complete.
    """
    todo = deque(todo)
    while todo:
        sw = sws[todo.popleft()]
        if sw.phase is RoundPhase.AGGREGATION and net.round_complete(sw.switch_id, Round.AGG):
            sw.end_aggregation()
            entries = list(sw.sum.entries())
            net.broadcast(sw.switch_id, Round.CONS, entries, requires=Round.AGG)
            todo.append(sw.switch_id)
            if not entries:
                todo.extend(p for p in sws if p != sw.switch_id)
        elif sw.phase is RoundPhase.CONSOLIDATION and net.round_complete(sw.switch_id, Round.CONS):
            sw.end_consolidation()


# Invariant checks: adapters passing the switches' rows to flowtable's.


def _population(switches, attr: str) -> tuple[list, list]:
    return [getattr(sw, attr).ids for sw in switches], [getattr(sw, attr).counts for sw in switches]


def check_sum_agreement(switches) -> None:
    """Every occupied Sum slot counts its Snapshot id's network-wide total."""
    ids = [sw.switch_id for sw in switches]
    check_sum_rows(*_population(switches, "snapshot"), [sw.sum.counts for sw in switches], ids)


def check_identical_tables(switches, attr: str) -> None:
    check_identical_rows(*_population(switches, attr), attr, [sw.switch_id for sw in switches])


def check_cycle_invariants(switches) -> None:
    """Full post-cycle invariant suite over a list of switches; once every
    switch holds the same G-TopK table, the first one's stands for all."""
    switches = list(switches)
    check_sum_agreement(switches)
    check_identical_tables(switches, "g_topk")
    g_topk = switches[0].g_topk
    check_gtopk_rows(g_topk.ids, g_topk.counts, g_topk.config)
    check_identical_tables(switches, "query")
