"""Local top-k accounting: matches, probabilistic replacement, recirculation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nettopk.precision as precision
from nettopk.flowtable import (
    AccessLog,
    FieldOrder,
    FlowEntry,
    TableConfig,
    hash_index,
)
from nettopk.precision import (
    LocalTopKState,
    derive_seed,
    ingest,
    local_estimate,
    process_packet,
    splitmix64,
)
from nettopk.workload import exact_topk, gen_zipf

_MASK64 = 0xFFFFFFFFFFFFFFFF

CFG = TableConfig(d=2, s=16, seeds=(101, 202))


def test_splitmix64_golden():
    state, z = splitmix64(0)
    assert state == 11400714819323198485
    assert z == 16294208416658607535
    state, z = splitmix64(state)
    assert state == 4354685564936845354
    assert z == 7960286522194355700


def test_splitmix64_wraps_to_64_bits():
    state, z = splitmix64(_MASK64)
    assert 0 <= state <= _MASK64
    assert 0 <= z <= _MASK64


def test_derive_seed_streams_differ():
    base = 12345
    seeds = {derive_seed(base, i) for i in range(32)}
    assert len(seeds) == 32
    assert derive_seed(base, 3) == derive_seed(base, 3)
    assert derive_seed(base, 3) != derive_seed(base + 1, 3)


def test_empty_slot_insert_is_unconditional():
    st = LocalTopKState.create(CFG, rng_seed=9)
    rng_before = st.rng_state
    process_packet(st, 42)
    assert local_estimate(st, 42) == 1
    assert st.recirculations == 1
    # MinCount 0 means certain insertion: no random draw is consumed
    assert st.rng_state == rng_before


def test_match_increments_in_place():
    st = LocalTopKState.create(CFG, rng_seed=9)
    for _ in range(1000):
        process_packet(st, 7)
    assert local_estimate(st, 7) == 1000
    assert st.recirculations == 1  # only the initial insertion
    assert st.table.occupancy() == 1


def test_estimate_none_when_absent():
    st = LocalTopKState.create(CFG, rng_seed=9)
    process_packet(st, 5)
    assert local_estimate(st, 99999) is None


def test_replacement_threshold_boundary(monkeypatch):
    # accept exactly when the draw is below floor(2^64 / (MinCount+1))
    def prepare():
        st = LocalTopKState.create(CFG, rng_seed=1)
        fid = 500
        for i in range(CFG.d):
            j = hash_index(CFG, i, fid)
            st.table.set_entry(i, j, FlowEntry(900 + i, 4))
        return st, fid

    threshold = _MASK64 // 5  # MinCount 4

    st, fid = prepare()
    monkeypatch.setattr(precision, "splitmix64", lambda s: (s, threshold))
    process_packet(st, fid)
    assert local_estimate(st, fid) is None  # draw at threshold: rejected

    st, fid = prepare()
    monkeypatch.setattr(precision, "splitmix64", lambda s: (s, threshold - 1))
    process_packet(st, fid)
    assert local_estimate(st, fid) == 5  # MinCount + 1


def test_replacement_targets_earliest_minimum(monkeypatch):
    st = LocalTopKState.create(CFG, rng_seed=1)
    fid = 321
    slots = [hash_index(CFG, i, fid) for i in range(CFG.d)]
    st.table.set_entry(0, slots[0], FlowEntry(111, 6))
    st.table.set_entry(1, slots[1], FlowEntry(222, 6))
    monkeypatch.setattr(precision, "splitmix64", lambda s: (s, 0))  # always accept
    process_packet(st, fid)
    assert st.table.read_id(0, slots[0]) == fid
    assert st.table.read_count(0, slots[0]) == 7
    assert st.table.read_id(1, slots[1]) == 222  # later tie untouched


def test_replacement_prefers_smaller_count():
    st = LocalTopKState.create(CFG, rng_seed=1)
    fid = 321
    slots = [hash_index(CFG, i, fid) for i in range(CFG.d)]
    st.table.set_entry(0, slots[0], FlowEntry(111, 50))
    # vector 1 slot left empty: MinCount 0, certain insert there
    process_packet(st, fid)
    assert st.table.read_id(0, slots[0]) == 111
    assert st.table.read_id(1, slots[1]) == fid
    assert st.table.read_count(1, slots[1]) == 1


def test_replacement_rate_near_one_over_min_count_plus_one():
    # resident count 999 -> acceptance probability 1/1000
    cfg = TableConfig(d=1, s=1, seeds=(5,))
    st = LocalTopKState.create(cfg, rng_seed=77)
    trials = 100_000
    accepts = 0
    for _ in range(trials):
        st.table.set_entry(0, 0, FlowEntry(999_999, 999))
        before = st.recirculations
        process_packet(st, 42)
        accepts += st.recirculations - before
    assert 60 <= accepts <= 140  # expectation 100, fixed seed lands at 94


def test_no_flow_occupies_two_vectors():
    st = LocalTopKState.create(CFG, rng_seed=3)
    tr = gen_zipf(1.0, 5000, 80, seed=4)
    ingest(st, tr.packets)
    seen = set()
    for i in range(CFG.d):
        for fid in st.table.ids[i]:
            if fid:
                assert fid not in seen
                seen.add(fid)
    st.table.check_placement()


def test_ingest_deterministic():
    tr = gen_zipf(0.8, 4000, 200, seed=6)
    a = LocalTopKState.create(CFG, rng_seed=5)
    b = LocalTopKState.create(CFG, rng_seed=5)
    ingest(a, tr.packets)
    ingest(b, tr.packets)
    assert a.table.equals(b.table)
    assert a.rng_state == b.rng_state
    assert a.recirculations == b.recirculations


def test_every_insert_counts_as_recirculation():
    big = TableConfig(d=1, s=4096, seeds=(13,))
    st = LocalTopKState.create(big, rng_seed=2)
    flows = list(range(1, 33))
    slots = {hash_index(big, 0, f) for f in flows}
    assert len(slots) == len(flows)  # no collisions at this seed
    ingest(st, flows)
    assert st.recirculations == len(flows)
    assert st.table.occupancy() == len(flows)


def test_packet_access_order_is_pipeline_legal():
    # each packet is a separate forward pass, so verify one log per packet
    st = LocalTopKState.create(CFG, rng_seed=9)
    for _ in range(2):  # insertion path, then match path
        log = AccessLog()
        process_packet(st, 10, log)
        log.verify(FieldOrder.ID_FIRST)
    st.table.set_entry(0, hash_index(CFG, 0, 77), FlowEntry(5, 1))
    st.table.set_entry(1, hash_index(CFG, 1, 77), FlowEntry(6, 1))
    log = AccessLog()
    process_packet(st, 77, log)  # replacement or skip, both recorded
    log.verify(FieldOrder.ID_FIRST)


def test_replacement_logs_one_recirculation():
    st = LocalTopKState.create(CFG, rng_seed=9)
    log = AccessLog()
    process_packet(st, 10, log)
    assert log.recirculations == 1
    log2 = AccessLog()
    process_packet(st, 10, log2)  # pure match: single pass
    assert log2.recirculations == 0


def test_zipf_recall_of_local_table():
    cfg = TableConfig(d=2, s=1024, seeds=(11, 22))
    k = 64
    for seed in range(1, 6):
        tr = gen_zipf(1.0, 100_000, 10_000, seed)
        st = LocalTopKState.create(cfg, rng_seed=seed)
        ingest(st, tr.packets)
        truth = exact_topk(tr, k)
        present = {e.id for e in st.table.entries()}
        recall = sum(1 for e in truth if e.id in present) / k
        assert recall >= 0.9


@settings(max_examples=60, deadline=None)
@given(
    s=st.sampled_from([1, 2, 16, 64]),
    flows=st.integers(1, 40),
    batches=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    block=st.sampled_from([1, 3, 8]),
    seed=st.integers(0, 2**16),
)
def test_ingest_matches_process_packet_loop(s, flows, batches, block, seed):
    # d=2 is the only d with a bulk loop; small flow sets against small
    # tables force collisions, count ties and random replacement draws, and
    # a small block makes batches cross boundaries
    config = TableConfig(d=2, s=s, seeds=tuple(derive_seed(seed, i) & 0xFFFFFFFF for i in range(2)))
    fast = LocalTopKState.create(config, rng_seed=seed)
    ref = LocalTopKState.create(config, rng_seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(precision, "INGEST_BLOCK", block)
        for b, size in enumerate(batches):
            packets = gen_zipf(1.0, size, flows, seed=seed + b).packets
            ingest(fast, packets)
            for fid in packets.tolist():
                process_packet(ref, fid)
            assert fast.table.ids == ref.table.ids
            assert fast.table.counts == ref.table.counts
            assert fast.rng_state == ref.rng_state
            assert fast.recirculations == ref.recirculations


def test_d2_ingest_draws_the_splitmix64_sequence():
    # ingest's d=2 loop inlines splitmix64; one slot per vector and thousands
    # of distinct flows make most packets miss both slots and draw
    config = TableConfig(d=2, s=1, seeds=(3, 4))
    packets = gen_zipf(0.5, 5000, 2000, seed=21).packets
    fast = LocalTopKState.create(config, rng_seed=99)
    ref = LocalTopKState.create(config, rng_seed=99)
    ingest(fast, packets)
    draws = 0
    for fid in packets.tolist():
        before = ref.rng_state
        process_packet(ref, fid)
        draws += ref.rng_state != before
    assert draws > 1000
    assert fast.rng_state == ref.rng_state
    assert fast.recirculations == ref.recirculations
    assert (fast.table.ids, fast.table.counts) == (ref.table.ids, ref.table.counts)


@pytest.mark.parametrize("d", [1, 3, 4])
def test_other_d_ingest_is_a_process_packet_loop(d, monkeypatch):
    monkeypatch.setattr(precision, "INGEST_BLOCK", 64)
    config = TableConfig(d=d, s=16, seeds=tuple(derive_seed(d, i) & 0xFFFFFFFF for i in range(d)))
    packets = gen_zipf(1.0, 2000, 300, seed=d).packets
    fast = LocalTopKState.create(config, rng_seed=d)
    ref = LocalTopKState.create(config, rng_seed=d)
    ingest(fast, packets)
    for fid in packets.tolist():
        process_packet(ref, fid)
    assert ref.rng_state != d  # some packets drew for a replacement
    assert (fast.table.ids, fast.table.counts) == (ref.table.ids, ref.table.counts)
    assert (fast.rng_state, fast.recirculations) == (ref.rng_state, ref.recirculations)
    # a zero after several blocks of packets raises before any of them is accounted
    late_zero = np.concatenate([packets[:1000], np.zeros(1, dtype=packets.dtype), packets[:10]])
    with pytest.raises(ValueError, match="flow id 0"):
        ingest(fast, late_zero)
    assert (fast.table.ids, fast.table.counts) == (ref.table.ids, ref.table.counts)
    assert (fast.rng_state, fast.recirculations) == (ref.rng_state, ref.recirculations)


def test_flow_id_zero_rejected_before_any_write():
    st = LocalTopKState.create(CFG, rng_seed=9)
    ingest(st, gen_zipf(1.0, 500, 40, seed=8).packets)
    before = ([r[:] for r in st.table.ids], [r[:] for r in st.table.counts], st.rng_state, st.recirculations)
    with pytest.raises(ValueError, match="flow id 0"):
        process_packet(st, 0)
    # the zero comes after packets that would insert and replace
    with pytest.raises(ValueError, match="flow id 0"):
        ingest(st, np.array([7, 9999, 12345, 0, 5], dtype=np.uint32))
    assert (st.table.ids, st.table.counts, st.rng_state, st.recirculations) == before
