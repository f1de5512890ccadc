"""Round state machine, merge semantics, and invariant checkers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ingested_switches, sorted_entries, table_to_arrays
from nettopk import cluster
from nettopk._kernels import check_invariants_arrays, run_cycle_arrays
from nettopk.cluster import partition, run_clustered
from nettopk.flowtable import (
    AccessLog,
    Field,
    FieldOrder,
    FlowEntry,
    Mode,
    MultiVectorTable,
    TableConfig,
    hash_index,
    snapshot_copy,
)
from nettopk.precision import process_packet
from nettopk.protocol import (
    InvariantError,
    PhaseError,
    RoundPhase,
    SwitchState,
    check_cycle_invariants,
    check_gtopk_ordering,
    check_identical_tables,
    check_no_duplicate_pairs,
    check_sum_agreement,
    consolidate_into,
    run_cycle,
)
from nettopk.transport import DeliveryOrder, Network, NetworkConfig

CFG = TableConfig(d=2, s=16, seeds=(31, 77))


def fresh_gtopk(config=CFG):
    return MultiVectorTable(config, FieldOrder.COUNT_FIRST)


def place(table, vector, fid, count):
    table.set_entry(vector, hash_index(table.config, vector, fid), FlowEntry(fid, count))


# consolidation walk branches


def test_walk_larger_count_evicts_and_carries():
    g = fresh_gtopk()
    j0 = hash_index(CFG, 0, 9)
    g.set_entry(0, j0, FlowEntry(5, 100))  # occupant in the walker's slot
    consolidate_into(g, 9, 300)
    assert g.read_id(0, j0) == 9 and g.read_count(0, j0) == 300
    # the evicted (5, 100) carried on into vector 1
    j1 = hash_index(CFG, 1, 5)
    assert g.read_id(1, j1) == 5 and g.read_count(1, j1) == 100


def test_walk_evicting_empty_slot_terminates():
    g = fresh_gtopk()
    consolidate_into(g, 9, 300)
    assert g.occupancy() == 1  # nothing carried into vector 1
    j1 = hash_index(CFG, 1, 9)
    assert g.read_id(1, j1) == 0


def test_walk_equal_pair_terminates_without_writes():
    g = fresh_gtopk()
    place(g, 0, 9, 300)
    log = AccessLog()
    consolidate_into(g, 9, 300, log)
    assert log.records == [
        (0, Field.COUNT, Mode.READ),
        (0, Field.ID, Mode.READ),
    ]
    assert g.occupancy() == 1


def test_walk_equal_count_larger_id_swaps_and_carries_smaller():
    g = fresh_gtopk()
    fid_small, fid_big = 5, 9
    j = hash_index(CFG, 0, fid_big)
    g.set_entry(0, j, FlowEntry(fid_small, 300))  # same slot, same count, smaller id
    consolidate_into(g, fid_big, 300)
    assert g.read_id(0, j) == fid_big and g.read_count(0, j) == 300
    # the smaller id carried on and settled in vector 1
    j1 = hash_index(CFG, 1, fid_small)
    assert g.read_id(1, j1) == fid_small and g.read_count(1, j1) == 300


def test_walk_equal_count_smaller_id_passes_through():
    g = fresh_gtopk()
    fid_small, fid_big = 5, 9
    j = hash_index(CFG, 0, fid_small)
    g.set_entry(0, j, FlowEntry(fid_big, 300))
    consolidate_into(g, fid_small, 300)
    assert g.read_id(0, j) == fid_big  # untouched
    j1 = hash_index(CFG, 1, fid_small)
    assert g.read_id(1, j1) == fid_small and g.read_count(1, j1) == 300


def test_walk_smaller_count_continues_untouched():
    g = fresh_gtopk()
    fid_in, fid_res = 5, 9
    j = hash_index(CFG, 0, fid_in)
    g.set_entry(0, j, FlowEntry(fid_res, 400))
    consolidate_into(g, fid_in, 100)
    assert g.read_id(0, j) == fid_res and g.read_count(0, j) == 400
    j1 = hash_index(CFG, 1, fid_in)
    assert g.read_id(1, j1) == fid_in and g.read_count(1, j1) == 100


def test_walk_discards_pair_past_last_vector():
    cfg = TableConfig(d=1, s=8, seeds=(3,))
    g = MultiVectorTable(cfg, FieldOrder.COUNT_FIRST)
    fid_in, fid_res = 2, 6
    j = hash_index(cfg, 0, fid_in)
    g.set_entry(0, j, FlowEntry(fid_res, 50))
    consolidate_into(g, fid_in, 10)  # loses, nowhere to go
    assert sorted_entries(g) == [FlowEntry(fid_res, 50)]
    consolidate_into(g, fid_in, 90)  # wins; evicted (6, 50) is discarded
    assert sorted_entries(g) == [FlowEntry(fid_in, 90)]


def test_walk_eviction_access_order_is_count_first():
    g = fresh_gtopk()
    place(g, 0, 5, 100)
    log = AccessLog()
    consolidate_into(g, 5, 300, log)  # same id, larger count: eviction then stop
    assert log.records[:4] == [
        (0, Field.COUNT, Mode.READ),
        (0, Field.COUNT, Mode.WRITE),
        (0, Field.ID, Mode.READ),
        (0, Field.ID, Mode.WRITE),
    ]
    log.verify(FieldOrder.COUNT_FIRST)
    assert log.recirculations == 0


def test_walk_chain_of_evictions_is_single_pass():
    g = fresh_gtopk()
    place(g, 0, 5, 100)
    place(g, 1, 6, 40)
    log = AccessLog()
    consolidate_into(g, 9, 300, log)
    log.verify(FieldOrder.COUNT_FIRST)
    assert log.recirculations == 0


# phase machine


def test_phase_transitions_and_errors():
    sw = SwitchState(0, CFG, rng_seed=1)
    entry = FlowEntry(3, 5)
    assert sw.phase is RoundPhase.IDLE
    with pytest.raises(PhaseError):
        sw.handle_aggregation_packet(1, entry)
    with pytest.raises(PhaseError):
        sw.end_aggregation()
    sw.begin_cycle()
    assert sw.phase is RoundPhase.AGGREGATION
    with pytest.raises(PhaseError):
        sw.begin_cycle()
    with pytest.raises(PhaseError):
        sw.handle_consolidation_packet(1, entry)
    with pytest.raises(PhaseError):
        sw.end_consolidation()
    sw.end_aggregation()
    assert sw.phase is RoundPhase.CONSOLIDATION
    with pytest.raises(PhaseError):
        sw.handle_aggregation_packet(1, entry)
    sw.end_consolidation()
    assert sw.phase is RoundPhase.IDLE


def test_switch_id_must_fit_wire_field():
    with pytest.raises(ValueError):
        SwitchState(2**16, CFG, rng_seed=1)


def test_begin_cycle_freezes_local_table():
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 4, 9)
    sw.begin_cycle()
    place(sw.l_topk.table, 0, 8, 2)  # live table keeps moving
    assert sorted_entries(sw.snapshot) == [FlowEntry(4, 9)]
    assert sorted_entries(sw.sum) == [FlowEntry(4, 9)]
    assert sw.g_topk.occupancy() == 0


def test_begin_cycle_with_explicit_source():
    sw = SwitchState(0, CFG, rng_seed=1)
    src = MultiVectorTable(CFG, FieldOrder.COUNT_FIRST)
    place(src, 0, 6, 11)
    sw.begin_cycle(source=src)
    assert sorted_entries(sw.snapshot) == [FlowEntry(6, 11)]
    assert sw.snapshot.field_order is FieldOrder.ID_FIRST


def test_aggregation_adds_on_matching_id():
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 1, 1000)
    sw.begin_cycle()
    sw.handle_aggregation_packet(1, FlowEntry(1, 1300))
    j = hash_index(CFG, 0, 1)
    assert sw.sum.read_count(0, j) == 2300
    assert sw.snapshot.read_count(0, j) == 1000  # snapshot untouched


def test_aggregation_disregards_unknown_id():
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 1, 1000)
    sw.begin_cycle()
    sw.handle_aggregation_packet(1, FlowEntry(2, 777))
    assert sorted_entries(sw.sum) == [FlowEntry(1, 1000)]


def test_aggregation_first_matching_vector_wins():
    sw = SwitchState(0, CFG, rng_seed=1)
    sw.begin_cycle()
    fid = 12
    for i in range(CFG.d):  # crafted duplicate across vectors
        j = hash_index(CFG, i, fid)
        sw.snapshot.set_entry(i, j, FlowEntry(fid, 10))
        sw.sum.set_entry(i, j, FlowEntry(fid, 10))
    sw.handle_aggregation_packet(1, FlowEntry(fid, 5))
    assert sw.sum.read_count(0, hash_index(CFG, 0, fid)) == 15
    assert sw.sum.read_count(1, hash_index(CFG, 1, fid)) == 10


def test_aggregation_rejects_own_packet():
    sw = SwitchState(0, CFG, rng_seed=1)
    sw.begin_cycle()
    with pytest.raises(AssertionError):
        sw.handle_aggregation_packet(0, FlowEntry(1, 1))


def test_end_aggregation_feeds_own_entries():
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 4, 9)
    place(sw.l_topk.table, 1, 5, 7)
    sw.begin_cycle()
    sw.end_aggregation()
    assert set(sorted_entries(sw.g_topk)) == {FlowEntry(4, 9), FlowEntry(5, 7)}
    check_gtopk_ordering(sw.g_topk)


def test_handler_access_logs_are_pipeline_legal():
    # every arriving packet is its own forward pass, so one log per packet
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 1, 1000)
    sw.begin_cycle()
    for entry in (FlowEntry(1, 1300), FlowEntry(2, 50)):
        log = AccessLog()
        sw.handle_aggregation_packet(1, entry, log)
        log.verify(FieldOrder.ID_FIRST)
        assert log.recirculations == 0
    sw.end_aggregation()
    clog = AccessLog()
    sw.handle_consolidation_packet(1, FlowEntry(6, 2000), clog)
    clog.verify(FieldOrder.COUNT_FIRST)
    assert clog.recirculations == 0


def test_query_flow_reads_query_table():
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 4, 9)
    sw.begin_cycle()
    sw.end_aggregation()
    sw.end_consolidation()
    assert sw.query_flow(4) == 9
    assert sw.query_flow(5) is None


# whole cycles


def run_lossless_cycle(switches, seed=0, order=DeliveryOrder.FIFO_PER_PAIR, drop=0.0):
    net = Network(NetworkConfig(n=len(switches), drop_probability=drop,
                                delivery_order=order, seed=seed))
    stats = run_cycle(switches, net)
    net.audit_exactly_once()
    return stats


def test_cycle_reaches_idle_and_agrees():
    switches = ingested_switches(4, CFG, stream_seed=1)
    run_lossless_cycle(switches)
    check_cycle_invariants(switches)
    assert all(sw.phase is RoundPhase.IDLE for sw in switches)
    assert switches[0].query.occupancy() > 0


@settings(max_examples=20, deadline=None)
@given(net_seed=st.integers(0, 2**32 - 1), drop=st.sampled_from([0.0, 0.25]))
def test_delivery_schedule_never_changes_outcome(net_seed, drop):
    baseline = ingested_switches(3, CFG, stream_seed=5)
    run_lossless_cycle(baseline)
    check_cycle_invariants(baseline)
    probe = ingested_switches(3, CFG, stream_seed=5)
    run_lossless_cycle(probe, seed=net_seed, order=DeliveryOrder.RANDOM, drop=drop)
    check_cycle_invariants(probe)
    for a, b in zip(baseline, probe):
        assert a.g_topk.equals(b.g_topk)
        assert a.query.equals(b.query)


@settings(max_examples=25, deadline=None)
@given(stream_seed=st.integers(0, 2**16))
def test_replaying_a_consolidated_table_reproduces_it(stream_seed):
    switches = ingested_switches(3, CFG, stream_seed=stream_seed, packets_per_switch=400)
    run_lossless_cycle(switches)
    final = switches[0].g_topk
    rebuilt = MultiVectorTable(CFG, FieldOrder.COUNT_FIRST)
    for e in final.entries():
        consolidate_into(rebuilt, e.id, e.count)
    assert rebuilt.equals(final)


# empty local tables: a zero-entry broadcast is then the only event that
# completes some rounds


def with_bounded_completion_checks(net, sws):
    """Make net fail if a step is followed by more round checks than it needs.

    After a delivery only its receiver is checked, and once more if it ends
    aggregation; when its Sum is empty, it also re-checks its n - 1 peers.
    A scan of every switch after every delivery would exceed the bound.
    """
    step, round_complete = net.step, net.round_complete
    last, calls = None, 0  # the previous step's result, round checks since

    def counted_round_complete(receiver, round_key):
        nonlocal calls
        calls += 1
        return round_complete(receiver, round_key)

    def bounded_step():
        nonlocal last, calls
        if last is not None:
            receiver = sws[last[1].receiver]
            bound = 2 + (net.config.n - 1) * (receiver.sum.occupancy() == 0)
            assert calls <= bound, f"{calls} round checks after one step"
        last, calls = step(), 0
        return last

    net.step = bounded_step
    net.round_complete = counted_round_complete
    return net


def empty_out(switches, ids):
    for i in ids:
        switches[i].l_topk.table = MultiVectorTable(CFG, FieldOrder.ID_FIRST)


@pytest.mark.parametrize("order", list(DeliveryOrder))
@pytest.mark.parametrize("empty", [(0,), (2,), (4,), (1, 3), (0, 1, 2, 3), (0, 1, 2, 3, 4)])
def test_empty_tables_complete_every_round(empty, order):
    switches = ingested_switches(5, CFG, stream_seed=6)
    empty_out(switches, empty)
    net = Network(NetworkConfig(n=5, drop_probability=0.3, delivery_order=order, seed=8))
    stats = run_cycle(switches, with_bounded_completion_checks(net, switches))
    net.audit_exactly_once()
    check_cycle_invariants(switches)
    assert all(sw.phase is RoundPhase.IDLE for sw in switches)
    assert (switches[0].query.occupancy() == 0) == (len(empty) == 5)
    if len(empty) < 5:
        assert stats.dropped > 0


@pytest.mark.parametrize("whole_network", [False, True])
def test_empty_tables_complete_clustered_rounds(whole_network, monkeypatch):
    switches = ingested_switches(8, CFG, stream_seed=7)
    plan = partition(8, 3, seed=2)
    # a whole empty cluster, and one empty member of another cluster
    empty = range(8) if whole_network else plan.members(0) + plan.members(1)[-1:]
    empty_out(switches, empty)
    monkeypatch.setattr(
        cluster, "Network",
        lambda config, participants: with_bounded_completion_checks(
            Network(config, participants=participants), switches
        ),
    )
    stats = run_clustered(
        switches, plan,
        NetworkConfig(n=8, drop_probability=0.3, delivery_order=DeliveryOrder.RANDOM, seed=4),
    )
    assert all(sw.phase is RoundPhase.IDLE for sw in switches)
    assert (switches[0].query.occupancy() == 0) == whole_network
    if not whole_network:
        assert stats.dropped > 0


def test_multiple_cycles_back_to_back():
    switches = ingested_switches(3, CFG, stream_seed=2, packets_per_switch=600)
    run_lossless_cycle(switches, seed=1)
    for i, sw in enumerate(switches):
        for fid in (7 + i, 7 + i, 7 + i, 8 + i):  # more traffic between cycles
            process_packet(sw.l_topk, fid)
    run_lossless_cycle(switches, seed=2)
    check_cycle_invariants(switches)
    assert all(sw.phase is RoundPhase.IDLE for sw in switches)


def test_query_serves_previous_result_during_a_cycle():
    sw = SwitchState(0, CFG, rng_seed=1)
    place(sw.l_topk.table, 0, 4, 9)
    sw.begin_cycle()
    sw.end_aggregation()
    sw.end_consolidation()
    first_query = snapshot_copy(sw.query)
    place(sw.l_topk.table, 0, 8, 3)
    sw.begin_cycle()
    assert sw.query.equals(first_query)  # still serving the last cycle
    sw.end_aggregation()
    assert sw.query.equals(first_query)
    sw.end_consolidation()
    assert not sw.query.equals(first_query)
    assert FlowEntry(8, 3) in set(sw.query.entries())


# invariant checkers must actually detect violations


def test_check_sum_agreement_detects_disagreement():
    switches = ingested_switches(2, CFG, stream_seed=3)
    run_lossless_cycle(switches)
    check_sum_agreement(switches)
    i, j = next(
        (i, j) for i in range(CFG.d) for j in range(CFG.s) if switches[0].sum.ids[i][j]
    )
    switches[0].sum.write_count(i, j, switches[0].sum.read_count(i, j) + 1)
    with pytest.raises(InvariantError):
        check_sum_agreement(switches)


def test_check_ordering_detects_inversion():
    g = fresh_gtopk()
    fid = 9
    place(g, 1, fid, 500)  # vector-1 entry whose vector-0 probe is empty
    with pytest.raises(InvariantError):
        check_gtopk_ordering(g)


def test_check_duplicates_detects_pair():
    g = fresh_gtopk()
    fid = 9
    g.set_entry(0, hash_index(CFG, 0, fid), FlowEntry(fid, 500))
    g.set_entry(1, hash_index(CFG, 1, fid), FlowEntry(fid, 500))
    with pytest.raises(InvariantError):
        check_no_duplicate_pairs(g)


def test_check_identical_tables_detects_divergence():
    switches = ingested_switches(2, CFG, stream_seed=4)
    run_lossless_cycle(switches)
    check_identical_tables(switches, "g_topk")
    i, j = next(
        (i, j) for i in range(CFG.d) for j in range(CFG.s) if switches[1].g_topk.ids[i][j]
    )
    switches[1].g_topk.write_count(i, j, switches[1].g_topk.read_count(i, j) + 1)
    with pytest.raises(InvariantError):
        check_identical_tables(switches, "g_topk")


# array engine parity


def test_array_cycle_matches_reference():
    n = 4
    switches = ingested_switches(n, CFG, stream_seed=8)
    l_ids = np.zeros((n, CFG.d, CFG.s), dtype=np.uint64)
    l_counts = np.zeros_like(l_ids)
    for i, sw in enumerate(switches):
        l_ids[i], l_counts[i] = table_to_arrays(sw.l_topk.table)
    run_lossless_cycle(switches)
    res = run_cycle_arrays(l_ids, l_counts, CFG)
    check_invariants_arrays(res, CFG)
    for i, sw in enumerate(switches):
        g_ids, g_counts = table_to_arrays(sw.g_topk)
        assert np.array_equal(res.g_ids[i], g_ids)
        assert np.array_equal(res.g_counts[i], g_counts)
        s_ids, s_counts = table_to_arrays(sw.sum)
        assert np.array_equal(res.sum_counts[i], s_counts)


def test_check_invariants_arrays_detects_tampering():
    n = 3
    switches = ingested_switches(n, CFG, stream_seed=9)
    l_ids = np.zeros((n, CFG.d, CFG.s), dtype=np.uint64)
    l_counts = np.zeros_like(l_ids)
    for i, sw in enumerate(switches):
        l_ids[i], l_counts[i] = table_to_arrays(sw.l_topk.table)
    res = run_cycle_arrays(l_ids, l_counts, CFG)
    res.g_counts[1][res.g_ids[1] != 0] += 1
    with pytest.raises(InvariantError):
        check_invariants_arrays(res, CFG)
    res2 = run_cycle_arrays(l_ids, l_counts, CFG)
    occupied = np.nonzero(res2.sum_counts.reshape(-1))[0]
    res2.sum_counts.reshape(-1)[occupied[0]] += 5
    with pytest.raises(InvariantError):
        check_invariants_arrays(res2, CFG)


def test_check_invariants_arrays_detects_misplacement():
    n = 3
    switches = ingested_switches(n, CFG, stream_seed=10, packets_per_switch=200, flows=10)
    l_ids = np.zeros((n, CFG.d, CFG.s), dtype=np.uint64)
    l_counts = np.zeros_like(l_ids)
    for i, sw in enumerate(switches):
        l_ids[i], l_counts[i] = table_to_arrays(sw.l_topk.table)
    res = run_cycle_arrays(l_ids, l_counts, CFG)
    check_invariants_arrays(res, CFG)
    held = np.nonzero(res.g_ids[0][0])[0]
    empty = np.nonzero(res.g_ids[0][0] == 0)[0]
    assert len(held) and len(empty)

    # one vector-0 entry moved to an empty slot, on every switch alike
    moved = run_cycle_arrays(l_ids, l_counts, CFG)
    for a in (moved.g_ids, moved.g_counts):
        a[:, 0, empty[0]] = a[:, 0, held[0]]
        a[:, 0, held[0]] = 0
    with pytest.raises(InvariantError, match="misplaced"):
        check_invariants_arrays(moved, CFG)

    # one empty slot given a count, on every switch alike
    res.g_counts[:, 0, empty[0]] = 7
    with pytest.raises(InvariantError, match="empty g_topk slot"):
        check_invariants_arrays(res, CFG)
