"""Array kernels against the object model.

ingest_arrays runs precision.ingest on array rows; its test compares it
with a process_packet loop and pins the hand-back of tables and RNG state
between batches. The bulk engine computes and holds one (d, s) G-TopK and
one Query, so agreement between its switches holds by construction. The
differential tests here are what tie it to the protocol: they run the
object model message by message, under random delivery order and loss, on
the same local tables and require every switch's tables to equal the bulk
engine's one table, and identical delivery counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ingested_switches, stacked_arrays, table_to_arrays
from nettopk import _kernels
from nettopk._kernels import run_clustered_arrays, run_cycle_arrays
from nettopk.cluster import partition, run_clustered
from nettopk.flowtable import TableConfig, hash_index, vector_hash_indices
from nettopk.precision import LocalTopKState, derive_seed, process_packet
from nettopk.protocol import run_cycle
from nettopk.transport import DeliveryOrder, Network, NetworkConfig
from nettopk.workload import gen_zipf

CFG = TableConfig(d=2, s=32, seeds=(3, 99))


def fresh_tables(n):
    shape = (n, CFG.d, CFG.s)
    return np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.uint64)


def ingest_population(n, seed):
    l_ids, l_counts = fresh_tables(n)
    for i in range(n):
        tr = gen_zipf(1.0, 1200, 90, seed=seed * 100 + i)
        packets = tr.packets.astype(np.uint64)
        _kernels.ingest_arrays(l_ids[i], l_counts[i], CFG, 7 + i, packets)
    return l_ids, l_counts


def test_ingest_matches_reference_object_model():
    packets = gen_zipf(1.0, 2500, 120, seed=22).packets.astype(np.uint64)
    # two batches, the second continuing from the first's tables and RNG state
    first, second = packets[:900], packets[900:]
    # d is looped, not parametrized, so the test keeps its one id
    for d in (1, 2, 4):
        config = TableConfig(d=d, s=32, seeds=tuple(derive_seed(22, i) & 0xFFFFFFFF for i in range(d)))
        st = LocalTopKState.create(config, rng_seed=5)
        for fid in packets.tolist():
            process_packet(st, fid)

        ids = np.zeros((d, config.s), dtype=np.uint64)
        counts = np.zeros((d, config.s), dtype=np.uint64)
        state, rc = _kernels.ingest_arrays(ids, counts, config, 5, first)
        state, rc2 = _kernels.ingest_arrays(ids, counts, config, state, second)

        ref_ids, ref_counts = table_to_arrays(st.table)
        assert np.array_equal(ids, ref_ids), d
        assert np.array_equal(counts, ref_counts), d
        assert state == st.rng_state, d
        assert rc + rc2 == st.recirculations, d


def test_ingest_arrays_rejects_mismatched_rows():
    packets = np.array([5, 6, 5], dtype=np.uint64)
    good = np.zeros((CFG.d, CFG.s), dtype=np.uint64)
    for shape in ((CFG.d, 2 * CFG.s), (CFG.d + 1, CFG.s), (CFG.s,)):
        bad = np.zeros(shape, dtype=np.uint64)
        for ids, counts in ((bad, good), (good, bad), (bad, bad.copy())):
            with pytest.raises(ValueError, match="rows shaped"):
                _kernels.ingest_arrays(ids, counts, CFG, 1, packets)
            assert not ids.any() and not counts.any()


def test_replay_reproduces_consolidated_table():
    snap_ids, snap_counts = ingest_population(3, seed=33)
    sum_counts = snap_counts.copy()
    _kernels.aggregate_arrays(snap_ids, snap_counts, sum_counts)
    g_ids, g_counts, r_ids, r_counts = np.zeros((4, CFG.d, CFG.s), dtype=np.uint64)
    _kernels.consolidate_arrays(snap_ids, sum_counts, g_ids, g_counts, CFG)

    walked = _kernels.replay_arrays(g_ids, g_counts, r_ids, r_counts, CFG)
    # a consolidated table replayed into an empty one reproduces itself
    assert np.array_equal(r_ids, g_ids)
    assert np.array_equal(r_counts, g_counts)
    assert walked == int(np.count_nonzero(g_ids))


def test_vector_hash_indices_matches_scalar():
    ids = np.array([1, 2, 3, 1000, 2**31], dtype=np.uint64)
    out = vector_hash_indices(ids, CFG.seeds[0], CFG.s - 1)
    for fid, j in zip(ids, out):
        assert int(j) == hash_index(CFG, 0, int(fid))


# Differential tests: bulk engine against the object model.

POPULATIONS = dict(
    d=st.integers(1, 4),
    n=st.integers(1, 6),
    s=st.sampled_from([16, 32, 64]),
    flows=st.integers(4, 300),
    drop=st.sampled_from([0.0, 0.3]),
    order=st.sampled_from(list(DeliveryOrder)),
    seed=st.integers(0, 2**16),
)


def population(d, n, s, flows, seed):
    """n ingested switches plus the config of their tables."""
    config = TableConfig(d=d, s=s, seeds=tuple(derive_seed(seed, i) & 0xFFFFFFFF for i in range(d)))
    switches = ingested_switches(n, config, stream_seed=seed, packets_per_switch=400, flows=flows)
    return switches, config


@settings(max_examples=30, deadline=None)
@given(**POPULATIONS)
def test_cycle_arrays_match_object_model(d, n, s, flows, drop, order, seed):
    switches, config = population(d, n, s, flows, seed)
    l_ids, l_counts = stacked_arrays([sw.l_topk.table for sw in switches])
    net = Network(NetworkConfig(n=n, drop_probability=drop, delivery_order=order, seed=seed))
    stats = run_cycle(switches, net)
    res = run_cycle_arrays(l_ids, l_counts, config)

    snap_ids, snap_counts = stacked_arrays([sw.snapshot for sw in switches])
    sum_ids, sum_counts = stacked_arrays([sw.sum for sw in switches])
    assert np.array_equal(snap_ids, res.snap_ids)
    assert np.array_equal(snap_counts, res.snap_counts)
    assert np.array_equal(sum_ids, res.snap_ids)
    assert np.array_equal(sum_counts, res.sum_counts)
    for sw in switches:
        g_ids, g_counts = table_to_arrays(sw.g_topk)
        assert np.array_equal(g_ids, res.g_ids)
        assert np.array_equal(g_counts, res.g_counts)
    assert stats.delivered == res.delivered


@settings(max_examples=20, deadline=None)
@given(c=st.integers(1, 6), **POPULATIONS)
def test_clustered_arrays_match_object_model(c, d, n, s, flows, drop, order, seed):
    switches, config = population(d, n, s, flows, seed)
    plan = partition(n, min(c, n), seed)
    l_ids, l_counts = stacked_arrays([sw.l_topk.table for sw in switches])
    stats = run_clustered(
        switches, plan, NetworkConfig(n=n, drop_probability=drop, delivery_order=order, seed=seed)
    )
    res = run_clustered_arrays(l_ids, l_counts, config, plan)

    for sw in switches:
        for table in (sw.g_topk, sw.query):
            ids, counts = table_to_arrays(table)
            assert np.array_equal(ids, res.query_ids)
            assert np.array_equal(counts, res.query_counts)
    phases = (stats.phase1.delivered, stats.phase2.delivered, stats.phase3.delivered)
    assert phases == res.phase_delivered
