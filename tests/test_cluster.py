"""Partitioning, the three clustered phases, and the message-count forms."""

import numpy as np
import pytest

from helpers import full_table, ingested_switches, stacked_arrays, switch_from_arrays, table_to_arrays
from nettopk import _kernels
from nettopk._kernels import run_clustered_arrays
from nettopk.cluster import (
    clustered_message_count,
    flat_message_count,
    partition,
    run_clustered,
)
from nettopk.flowtable import AccessLog, Field, TableConfig
from nettopk.protocol import InvariantError, PhaseError, SwitchState, check_cycle_invariants, run_cycle
from nettopk.transport import DeliveryOrder, Network, NetworkConfig

CFG = TableConfig(d=2, s=16, seeds=(41, 42))


def test_partition_sizes_balanced():
    clusters = partition(10, 3, seed=1)
    assert [len(members) for members in clusters] == [4, 3, 3]
    assert sorted(sum(clusters, ())) == list(range(10))
    assert all(list(members) == sorted(members) for members in clusters)
    # the members the shuffle and size rule have always given
    assert clusters == ((6, 7, 8, 9), (0, 3, 5), (1, 2, 4))
    assert partition(16, 4, seed=5) == ((2, 3, 4, 13), (1, 6, 7, 9), (0, 10, 14, 15), (5, 8, 11, 12))


def test_partition_deterministic_and_seeded():
    a = partition(20, 4, seed=5)
    b = partition(20, 4, seed=5)
    c = partition(20, 4, seed=6)
    assert a == b
    assert a != c


def test_partition_validation():
    with pytest.raises(ValueError):
        partition(5, 0, seed=1)
    with pytest.raises(ValueError):
        partition(5, 6, seed=1)


def test_partition_edge_shapes():
    assert partition(4, 1, seed=1) == ((0, 1, 2, 3),)
    singletons = partition(4, 4, seed=1)
    assert sorted(singletons) == [(0,), (1,), (2,), (3,)]


def test_message_count_forms():
    assert flat_message_count(10, 8192) == 1_474_560
    assert flat_message_count(100, 8192) == 162_201_600
    assert clustered_message_count(100, 10, 8192) == 16_957_440
    # n=12 into 3 clusters of 4, 32 entries each
    assert clustered_message_count(12, 3, 32) == 2304 + 384 + 288


def test_clustered_queries_identical_everywhere():
    switches = ingested_switches(9, CFG, stream_seed=1)
    plan = partition(9, 3, seed=2)
    stats = run_clustered(
        switches, plan,
        NetworkConfig(n=9, drop_probability=0.2, delivery_order=DeliveryOrder.RANDOM, seed=3),
    )
    ref = switches[0].query
    assert all(sw.query.equals(ref) and sw.g_topk.equals(ref) for sw in switches)
    assert ref.occupancy() > 0
    assert stats.delivered == sum(
        (stats.phase1.delivered, stats.phase2.delivered, stats.phase3.delivered)
    )
    assert stats.dropped > 0


def test_phase3_deliveries_are_pipeline_legal(monkeypatch):
    """Each phase-3 delivery is one forward pass of the receiving member's
    own consolidation handler, after begin_install emptied its G-TopK."""
    handle, begin_install = SwitchState.handle_consolidation_packet, SwitchState.begin_install
    installing, installs = set(), []

    def tracked_begin_install(sw, slots):
        installing.add(sw.switch_id)
        begin_install(sw, slots)

    def logged_handle(sw, sender, entry, log=None):
        log = AccessLog()
        handle(sw, sender, entry, log)
        assert log.records and log.recirculations == 0
        log.verify(Field.COUNT)
        installs.append(sw.switch_id in installing)

    monkeypatch.setattr(SwitchState, "begin_install", tracked_begin_install)
    monkeypatch.setattr(SwitchState, "handle_consolidation_packet", logged_handle)
    switches = ingested_switches(8, CFG, stream_seed=5)
    plan = partition(8, 3, seed=6)
    stats = run_clustered(
        switches, plan,
        NetworkConfig(n=8, drop_probability=0.2, delivery_order=DeliveryOrder.RANDOM, seed=7),
    )
    assert installing == set(range(8)) - {members[0] for members in plan}
    assert sum(installs) == stats.phase3.delivered > 0


def test_install_copy_outside_consolidation_raises():
    switches = ingested_switches(3, CFG, stream_seed=4)
    run_cycle(switches, Network(NetworkConfig(n=3, seed=1)))
    net = Network(NetworkConfig(n=3, seed=2))
    net.broadcast(0, "install", list(switches[0].g_topk.entries()))
    handlers = {(m, "install"): switches[m].handle_consolidation_packet for m in (1, 2)}
    with pytest.raises(PhaseError, match="handle_consolidation_packet requires consolidation"):
        net.step(handlers)


def test_single_cluster_matches_flat_run_at_one_vector():
    cfg = TableConfig(d=1, s=32, seeds=(77,))
    flat = ingested_switches(5, cfg, stream_seed=4)
    net = Network(NetworkConfig(n=5, seed=9))
    run_cycle(flat, net)
    check_cycle_invariants(flat)

    clustered = ingested_switches(5, cfg, stream_seed=4)
    run_clustered(clustered, partition(5, 1, seed=1), NetworkConfig(n=5, seed=9))
    for a, b in zip(flat, clustered):
        assert a.query.equals(b.query)


def test_clustered_lossless_counts_match_closed_form():
    # identical fully occupied tables keep every table full through all phases
    cfg = TableConfig(d=2, s=16, seeds=(41, 42))
    ids, counts = full_table(cfg.s, cfg.seeds)
    n, c = 12, 3
    switches = [switch_from_arrays(i, cfg, ids, counts) for i in range(n)]
    plan = partition(n, c, seed=7)
    stats = run_clustered(switches, plan, NetworkConfig(n=n, seed=8))
    entries = cfg.d * cfg.s
    assert stats.phase1.delivered == 2304
    assert stats.phase2.delivered == 384
    assert stats.phase3.delivered == 288
    assert stats.delivered == clustered_message_count(n, c, entries)
    assert all(sw.query.occupancy() == entries for sw in switches)


def test_clustered_beats_flat_on_messages():
    cfg = TableConfig(d=2, s=16, seeds=(41, 42))
    ids, counts = full_table(cfg.s, cfg.seeds)
    n = 12
    flat = [switch_from_arrays(i, cfg, ids, counts) for i in range(n)]
    net = Network(NetworkConfig(n=n, seed=3))
    flat_stats = run_cycle(flat, net)
    clustered = [switch_from_arrays(i, cfg, ids, counts) for i in range(n)]
    stats = run_clustered(clustered, partition(n, 4, seed=5), NetworkConfig(n=n, seed=3))
    assert flat_stats.delivered == flat_message_count(n, cfg.d * cfg.s)
    assert stats.delivered < flat_stats.delivered


def test_clustered_arrays_match_reference():
    n = 8
    switches = ingested_switches(n, CFG, stream_seed=6)
    l_ids, l_counts = stacked_arrays([sw.l_topk.table for sw in switches])
    plan = partition(n, 3, seed=11)
    stats = run_clustered(switches, plan, NetworkConfig(n=n, seed=12))
    res = run_clustered_arrays(l_ids, l_counts, CFG, plan)
    assert res.delivered == stats.delivered
    assert res.phase_delivered == (
        stats.phase1.delivered, stats.phase2.delivered, stats.phase3.delivered
    )
    for sw in switches:
        for table in (sw.g_topk, sw.query):
            ids, counts = table_to_arrays(table)
            assert np.array_equal(res.query_ids, ids)
            assert np.array_equal(res.query_counts, counts)


@pytest.mark.parametrize(
    "bad_call, match",
    [(0, "misplaced"), (1, "misplaced"), (2, "misplaced"), (3, "query tables diverged")],
)
def test_clustered_arrays_check_every_phase(monkeypatch, bad_call, match):
    # _place runs once per phase-1 cluster (calls 0, 1), once for the
    # representatives (call 2) and once for the phase-3 replay (call 3)
    n = 8
    switches = ingested_switches(n, CFG, stream_seed=7, packets_per_switch=200, flows=10)
    l_ids, l_counts = stacked_arrays([sw.l_topk.table for sw in switches])
    plan = partition(n, 2, seed=11)
    place = _kernels._place
    calls = []

    def misplace_one(ids, counts, config):
        out_ids, out_counts = place(ids, counts, config)
        calls.append(None)
        if len(calls) - 1 == bad_call:
            held = np.nonzero(out_ids[0])[0]
            empty = np.nonzero(out_ids[0] == 0)[0]
            assert len(held) and len(empty)
            for a in (out_ids, out_counts):
                a[0, empty[0]] = a[0, held[0]]
                a[0, held[0]] = 0
        return out_ids, out_counts

    monkeypatch.setattr(_kernels, "_place", misplace_one)
    with pytest.raises(InvariantError, match=match):
        run_clustered_arrays(l_ids, l_counts, CFG, plan)
    assert len(calls) == bad_call + 1


def test_clustered_with_loss_still_agrees():
    switches = ingested_switches(7, CFG, stream_seed=13)
    plan = partition(7, 2, seed=14)
    run_clustered(
        switches, plan,
        NetworkConfig(n=7, drop_probability=0.3, delivery_order=DeliveryOrder.RANDOM, seed=15),
    )
    lossless = ingested_switches(7, CFG, stream_seed=13)
    run_clustered(lossless, plan, NetworkConfig(n=7, seed=16))
    for a, b in zip(switches, lossless):
        assert a.query.equals(b.query)
