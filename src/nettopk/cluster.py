"""Clustered operation: per-cluster cycles, a representatives' cycle, and
dissemination of the final table to every member.

Phase 1 runs a full cycle independently inside each cluster, leaving all
members of a cluster with the same merged table. Phase 2 takes one
representative per cluster and runs a cycle among representatives, using
each one's phase-1 merged table as its local table. Phase 3 broadcasts the
representatives' final table back to their members, who rebuild it by
walking the received entries into an empty table; a consolidated table
replayed this way reproduces itself exactly, so afterwards every switch in
the network serves the identical query table. Every phase-1 and phase-2
cycle and the final query tables pass flowtable's invariant checks.

The message saving comes from replacing one n-wide all-to-all with c
cluster-local all-to-alls plus a c-wide one plus a linear dissemination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .flowtable import FieldOrder, MultiVectorTable, snapshot_copy
from .protocol import (
    CycleStats,
    check_cycle_invariants,
    check_identical_tables,
    consolidate_into,
    run_cycle,
    run_rounds,
    _slot_reader,
)
from .transport import Network, NetworkConfig


@dataclass(frozen=True)
class ClusterPlan:
    c: int
    assignment: dict[int, int]
    representatives: tuple[int, ...]

    def members(self, cluster_id: int) -> list[int]:
        return sorted(s for s, c in self.assignment.items() if c == cluster_id)


def partition(n: int, c: int, seed: int) -> ClusterPlan:
    """Split switches 0..n-1 into c clusters whose sizes differ by at most 1."""
    if not 1 <= c <= n:
        raise ValueError("need 1 <= c <= n")
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    base, extra = divmod(n, c)
    assignment: dict[int, int] = {}
    reps = []
    pos = 0
    for cid in range(c):
        size = base + (1 if cid < extra else 0)
        chunk = ids[pos : pos + size]
        pos += size
        for s in chunk:
            assignment[s] = cid
        reps.append(min(chunk))
    return ClusterPlan(c=c, assignment=assignment, representatives=tuple(reps))


@dataclass
class ClusteredStats:
    phase1: CycleStats
    phase2: CycleStats
    phase3: CycleStats

    @property
    def delivered(self) -> int:
        return self.phase1.delivered + self.phase2.delivered + self.phase3.delivered

    @property
    def dropped(self) -> int:
        return self.phase1.dropped + self.phase2.dropped + self.phase3.dropped


def run_clustered(switches, plan: ClusterPlan, net_config: NetworkConfig) -> ClusteredStats:
    """Run the three clustered phases over the object model.

    net_config supplies loss and ordering policy; each phase gets fresh
    transport instances (phase boundaries are global barriers). Every
    phase-1 and phase-2 cycle passes check_cycle_invariants; afterwards
    every switch's query table holds the same network-wide result.
    """
    sws = {sw.switch_id: sw for sw in switches}

    def make_net(participants, offset):
        cfg = replace(net_config, n=len(participants), seed=net_config.seed + offset)
        return Network(cfg, participants=tuple(participants))

    p1 = CycleStats(0, 0)
    for cid in range(plan.c):
        members = plan.members(cid)
        net = make_net(members, 1000 + cid)
        stats = run_cycle([sws[m] for m in members], net)
        net.audit_exactly_once()
        p1.delivered += stats.delivered
        p1.dropped += stats.dropped
        check_cycle_invariants([sws[m] for m in members])

    # phase 2: each representative's merged table becomes its local table
    cluster_tables = {rep: snapshot_copy(sws[rep].g_topk) for rep in plan.representatives}
    reps = sorted(plan.representatives)
    net2 = make_net(reps, 2000)
    for rep in reps:
        sws[rep].begin_cycle(source=cluster_tables[rep])
    p2 = run_rounds([sws[r] for r in reps], net2)
    net2.audit_exactly_once()
    check_cycle_invariants([sws[r] for r in reps])

    # phase 3: representatives, whose query tables phase 2 already set,
    # disseminate the final table to their clusters
    p3 = CycleStats(0, 0)
    for cid in range(plan.c):
        rep = plan.representatives[cid]
        members = plan.members(cid)
        others = [m for m in members if m != rep]
        final = sws[rep].g_topk
        if others:
            net3 = make_net(members, 3000 + cid)
            reader, count = _slot_reader(final)
            net3.broadcast(rep, "install", reader, count)
            rebuilt = {
                m: MultiVectorTable(sws[rep].config, FieldOrder.COUNT_FIRST) for m in others
            }
            while (ev := net3.step()) is not None:
                delivered, msg = ev
                if delivered:
                    consolidate_into(rebuilt[msg.receiver], msg.entry.id, msg.entry.count)
            net3.audit_exactly_once()
            p3.delivered += net3.delivered_count
            p3.dropped += net3.dropped_count
            for m in others:
                sws[m].query = snapshot_copy(rebuilt[m], FieldOrder.ID_FIRST)

    check_identical_tables(switches, "query")
    return ClusteredStats(p1, p2, p3)


# Closed-form lossless message counts.


def flat_message_count(n: int, entries_per_switch: int) -> int:
    """Deliveries in one flat cycle with equal per-switch occupancy."""
    return n * (n - 1) * entries_per_switch * 2


def clustered_message_count(n: int, c: int, entries: int) -> int:
    """Deliveries across the three clustered phases at uniform occupancy."""
    base, extra = divmod(n, c)
    sizes = [base + (1 if i < extra else 0) for i in range(c)]
    phase1 = sum(m * (m - 1) for m in sizes) * entries * 2
    phase2 = c * (c - 1) * entries * 2
    phase3 = sum(m - 1 for m in sizes) * entries
    return phase1 + phase2 + phase3

