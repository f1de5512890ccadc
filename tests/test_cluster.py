"""Partitioning, the three clustered phases, and the message-count forms."""

import numpy as np
import pytest

from helpers import full_table, ingested_switches, switch_from_arrays, table_to_arrays
from nettopk import _kernels
from nettopk._kernels import run_clustered_arrays
from nettopk.cluster import (
    clustered_message_count,
    flat_message_count,
    partition,
    run_clustered,
)
from nettopk.flowtable import TableConfig
from nettopk.protocol import InvariantError, check_cycle_invariants, run_cycle
from nettopk.transport import DeliveryOrder, Network, NetworkConfig

CFG = TableConfig(d=2, s=16, seeds=(41, 42))


def test_partition_sizes_balanced():
    plan = partition(10, 3, seed=1)
    sizes = sorted(len(plan.members(c)) for c in range(3))
    assert sizes == [3, 3, 4]
    assert sorted(sum((plan.members(c) for c in range(3)), [])) == list(range(10))
    for c in range(3):
        assert plan.representatives[c] == min(plan.members(c))


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
    assert partition(4, 1, seed=1).members(0) == [0, 1, 2, 3]
    singletons = partition(4, 4, seed=1)
    assert sorted(singletons.representatives) == [0, 1, 2, 3]


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
    assert all(sw.query.equals(ref) for sw in switches)
    assert ref.occupancy() > 0
    assert stats.delivered == sum(
        (stats.phase1.delivered, stats.phase2.delivered, stats.phase3.delivered)
    )
    assert stats.dropped > 0


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
    l_ids = np.zeros((n, CFG.d, CFG.s), dtype=np.uint64)
    l_counts = np.zeros_like(l_ids)
    for i, sw in enumerate(switches):
        l_ids[i], l_counts[i] = table_to_arrays(sw.l_topk.table)
    plan = partition(n, 3, seed=11)
    stats = run_clustered(switches, plan, NetworkConfig(n=n, seed=12))
    res = run_clustered_arrays(l_ids, l_counts, CFG, plan)
    assert res.delivered == stats.delivered
    assert res.phase_delivered == (
        stats.phase1.delivered, stats.phase2.delivered, stats.phase3.delivered
    )
    for i, sw in enumerate(switches):
        q_ids, q_counts = table_to_arrays(sw.query)
        assert np.array_equal(res.query_ids[i], q_ids)
        assert np.array_equal(res.query_counts[i], q_counts)


@pytest.mark.parametrize(
    "bad_call, match",
    [(0, "misplaced"), (1, "misplaced"), (2, "misplaced"), (3, "query tables diverged")],
)
def test_clustered_arrays_check_every_phase(monkeypatch, bad_call, match):
    # _place runs once per phase-1 cluster (calls 0, 1), once for the
    # representatives (call 2) and once for the phase-3 replay (call 3)
    n = 8
    switches = ingested_switches(n, CFG, stream_seed=7, packets_per_switch=200, flows=10)
    l_ids = np.zeros((n, CFG.d, CFG.s), dtype=np.uint64)
    l_counts = np.zeros_like(l_ids)
    for i, sw in enumerate(switches):
        l_ids[i], l_counts[i] = table_to_arrays(sw.l_topk.table)
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
