"""Clustered operation: per-cluster cycles, a representatives' cycle, and
dissemination of the final table to every member.

partition gives each cluster as the tuple of its members in ascending
order, the first its representative. Phase 1 runs a full cycle inside each
cluster, leaving its members with the same merged table. Phase 2 runs a
cycle among the representatives, each one's phase-1 table its local table.
Phase 3 broadcasts the representatives' final table back to their members,
who rebuild it into G-TopK through their own consolidation handler and
publish it as Query; a consolidated table replayed this way reproduces
itself exactly, so every switch ends with identical G-TopK and Query
tables, as after a flat cycle. Every phase-1 and phase-2 cycle passes
flowtable's invariant checks.

The message saving comes from replacing one n-wide all-to-all with c
cluster-local all-to-alls plus a c-wide one plus a linear dissemination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .flowtable import SlotMap
from .protocol import CycleStats, check_cycle_invariants, check_identical_tables, run_cycle, run_rounds
from .transport import Network, NetworkConfig


def partition(n: int, c: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Split switches 0..n-1 into c clusters of seeded random members; returns
    each cluster's members in ascending order, its first the representative.
    The first n % c clusters hold one switch more than the rest."""
    if not 1 <= c <= n:
        raise ValueError("need 1 <= c <= n")
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    base, extra = divmod(n, c)
    ends = [cid * base + min(cid, extra) for cid in range(c + 1)]
    return tuple(tuple(sorted(ids[a:b])) for a, b in zip(ends, ends[1:]))


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


def run_clustered(switches, clusters, net_config: NetworkConfig) -> ClusteredStats:
    """Run the three clustered phases over the object model, clustered as
    partition returns.

    net_config supplies loss and ordering policy; each phase gets fresh
    transport instances (phase boundaries are global barriers). Every
    phase-1 and phase-2 cycle passes check_cycle_invariants; afterwards
    every switch's G-TopK and Query tables hold the same network-wide result.
    """
    sws = {sw.switch_id: sw for sw in switches}

    def make_net(participants, offset):
        cfg = replace(net_config, n=len(participants), seed=net_config.seed + offset)
        return Network(cfg, participants=tuple(participants))

    p1 = CycleStats(0, 0)
    for cid, members in enumerate(clusters):
        net = make_net(members, 1000 + cid)
        stats = run_cycle([sws[m] for m in members], net)
        net.audit_exactly_once()
        p1.delivered += stats.delivered
        p1.dropped += stats.dropped
        check_cycle_invariants([sws[m] for m in members])

    # phase 2: each representative's merged table becomes its local table
    reps = sorted(members[0] for members in clusters)
    net2 = make_net(reps, 2000)
    for rep in reps:
        sws[rep].begin_cycle(source=sws[rep].g_topk)
    p2 = run_rounds([sws[r] for r in reps], net2)
    net2.audit_exactly_once()
    check_cycle_invariants([sws[r] for r in reps])

    # phase 3: representatives, whose tables phase 2 already set,
    # disseminate the final table to their clusters
    p3 = CycleStats(0, 0)
    for cid, members in enumerate(clusters):
        rep, others = members[0], [sws[m] for m in members[1:]]
        final = sws[rep].g_topk
        if others:
            net3 = make_net(members, 3000 + cid)
            net3.broadcast(rep, "install", list(final.entries()))
            slots = SlotMap(final.config, [final])
            for sw in others:
                sw.begin_install(slots)
            handlers = {(sw.switch_id, "install"): sw.handle_consolidation_packet for sw in others}
            while net3.step(handlers) is not None:
                pass
            net3.audit_exactly_once()
            p3.delivered += net3.delivered_count
            p3.dropped += net3.dropped_count
            for sw in others:
                sw.end_consolidation()

    check_identical_tables(switches, "g_topk")
    check_identical_tables(switches, "query")
    return ClusteredStats(p1, p2, p3)


# Closed-form lossless message counts.


def flat_message_count(n: int, entries_per_switch: int) -> int:
    """Deliveries in one flat cycle with equal per-switch occupancy."""
    return n * (n - 1) * entries_per_switch * 2


def clustered_message_count(n: int, c: int, entries: int) -> int:
    """Deliveries across the three clustered phases at uniform occupancy."""
    sizes = [len(members) for members in partition(n, c, seed=0)]
    phase1 = sum(m * (m - 1) for m in sizes) * entries * 2
    phase2 = c * (c - 1) * entries * 2
    phase3 = (n - c) * entries
    return phase1 + phase2 + phase3

