"""Acceptance gate: nine behavioral criteria, one printed verdict line each.

Every test prints "[PASS] criterion N: ..." or "[FAIL] criterion N: ..."
and then asserts, so the verdicts are readable straight off the run log.
"""

import time

import numpy as np
import pytest

from helpers import full_table, held_bytes, sorted_entries, switch_from_arrays
from nettopk._kernels import ingest_arrays, run_clustered_arrays, run_cycle_arrays
from nettopk.cli import (
    ExperimentConfig,
    load_trace,
    node_memory_bytes,
    run_on_streams,
    run_seed,
)
from nettopk.cluster import (
    clustered_message_count,
    flat_message_count,
    partition,
    run_clustered,
)
from nettopk.flowtable import (
    AccessLog,
    Field,
    FieldOrder,
    FlowEntry,
    Mode,
    MultiVectorTable,
    TableConfig,
    check_gtopk_rows,
    hash_index,
)
from nettopk.precision import derive_seed, ingest, local_estimate
from nettopk.protocol import (
    InvariantError,
    SwitchState,
    check_identical_tables,
    check_sum_agreement,
    consolidate_into,
    run_cycle,
)
from nettopk.transport import DeliveryOrder, Network, NetworkConfig
from nettopk.workload import SplitPlan, exact_topk, gen_zipf, split_stream


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"\n[{tag}] criterion {num}: {desc}{extra}")
    return ok


# criteria 1 and 2 share one batch of randomized trials


@pytest.fixture(scope="module")
def agreement_trials():
    ns = (2, 3, 5, 10, 25)
    t0 = time.monotonic()
    identical_failures = []
    lemma_failures = []
    cycles_checked = 0
    for trial in range(100):
        n = ns[trial % len(ns)]
        drop = 0.2 if trial % 2 else 0.0
        d = (1, 2, 3)[trial % 3]
        s = ((16, 32, 64, 128)[trial % 4]) if n < 25 else ((16, 32)[trial % 2])
        cycles = 2 if trial % 3 == 0 else 1
        seeds = tuple(derive_seed(trial, 0x5EED0 + i) & 0xFFFFFFFF for i in range(d))
        cfg = TableConfig(d=d, s=s, seeds=seeds)
        packets = 1200 + 137 * (trial % 7)
        flows = 60 + 13 * (trial % 9)
        trace = gen_zipf(1.0, packets, flows, seed=trial)
        streams = split_stream(
            trace, SplitPlan(k=8, n_switches=n, affinity=0.8, seed=trial)
        )
        switches = [
            SwitchState(i, cfg, rng_seed=derive_seed(trial, 0x100 + i)) for i in range(n)
        ]
        chunks = [np.array_split(st, cycles) for st in streams]
        for cyc in range(cycles):
            for i, sw in enumerate(switches):
                ingest(sw.l_topk, chunks[i][cyc])
            net = Network(
                NetworkConfig(
                    n=n,
                    drop_probability=drop,
                    delivery_order=DeliveryOrder.RANDOM,
                    seed=derive_seed(trial, 0x900 + cyc),
                )
            )
            run_cycle(switches, net)
            net.audit_exactly_once()
            cycles_checked += 1
            try:
                check_identical_tables(switches, "g_topk")
                check_identical_tables(switches, "query")
            except InvariantError as exc:
                identical_failures.append(f"trial {trial} cycle {cyc}: {exc}")
            try:
                check_sum_agreement(switches)
                for sw in switches:
                    check_gtopk_rows(sw.g_topk.ids, sw.g_topk.counts, cfg)
            except (InvariantError, AssertionError) as exc:
                lemma_failures.append(f"trial {trial} cycle {cyc}: {exc}")
    return {
        "trials": 100,
        "cycles": cycles_checked,
        "identical_failures": identical_failures,
        "lemma_failures": lemma_failures,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_1_identical_tables_everywhere(agreement_trials):
    r = agreement_trials
    ok = not r["identical_failures"] and r["elapsed"] < 120.0
    detail = (
        f"{r['trials']} trials, {r['cycles']} cycles, "
        f"{len(r['identical_failures'])} mismatches, {r['elapsed']:.1f}s"
    )
    assert _verdict(
        1, "all switches agree on merged and query tables after every cycle", ok, detail
    ), r["identical_failures"][:3]


def test_criterion_2_count_and_ordering_invariants(agreement_trials):
    r = agreement_trials
    ok = not r["lemma_failures"]
    detail = f"{r['cycles']} cycles, {len(r['lemma_failures'])} violations"
    assert _verdict(
        2,
        "sum agreement, (count,id) vector ordering, and duplicate freedom are exact",
        ok,
        detail,
    ), r["lemma_failures"][:3]


GOLDEN_SEED = 142  # flows 1..5 land on slots 3,1,0,1,0 of a 4-slot vector


def _golden_pair(order, drop, net_seed):
    cfg = TableConfig(d=1, s=4, seeds=(GOLDEN_SEED,))

    def build(sid, loads):
        sw = SwitchState(sid, cfg, rng_seed=1)
        for fid, c in loads.items():
            sw.l_topk.table.set_entry(0, hash_index(cfg, 0, fid), FlowEntry(fid, c))
        return sw

    s1 = build(0, {1: 1000, 2: 500, 5: 400})
    s2 = build(1, {1: 1300, 3: 100, 4: 600})
    net = Network(
        NetworkConfig(n=2, drop_probability=drop, delivery_order=order, seed=net_seed)
    )
    run_cycle([s1, s2], net)
    net.audit_exactly_once()
    return cfg, s1, s2


def test_criterion_3_two_switch_golden_outcome():
    ok = True
    notes = []
    for order, drop in (
        (DeliveryOrder.FIFO_PER_PAIR, 0.0),
        (DeliveryOrder.RANDOM, 0.0),
        (DeliveryOrder.RANDOM, 0.3),
    ):
        cfg, s1, s2 = _golden_pair(order, drop, net_seed=9)
        for sw in (s1, s2):
            # both switches aggregate flow 1 to the full network-wide 2300
            ok &= sw.sum.counts[0][hash_index(cfg, 0, 1)] == 2300
            # flow 4 (600) evicted flow 2 (500) from their shared slot
            ok &= sw.g_topk.ids[0][1] == 4 and sw.g_topk.counts[0][1] == 600
            # flow 3 (100) failed to displace flow 5 (400)
            ok &= sw.g_topk.ids[0][0] == 5 and sw.g_topk.counts[0][0] == 400
            ok &= sw.g_topk.ids[0][3] == 1 and sw.g_topk.counts[0][3] == 2300
            ok &= sw.query_flow(2) is None and sw.query_flow(3) is None
        ok &= s1.g_topk.equals(s2.g_topk)
        notes.append(f"{order.value}/drop={drop}")

    # an arriving pair equal to the stored one terminates after two reads
    cfg = TableConfig(d=1, s=4, seeds=(GOLDEN_SEED,))
    g = MultiVectorTable(cfg, FieldOrder.COUNT_FIRST)
    g.set_entry(0, hash_index(cfg, 0, 1), FlowEntry(1, 2300))
    log = AccessLog()
    consolidate_into(g, 1, 2300, log)
    ok &= log.records == [(0, Field.COUNT, Mode.READ), (0, Field.ID, Mode.READ)]
    ok &= sorted_entries(g) == [FlowEntry(1, 2300)]

    assert _verdict(
        3,
        "hand-built 2-switch scenario reproduces 2300/eviction/survival/termination",
        ok,
        "; ".join(notes),
    )


def test_criterion_4_per_switch_memory():
    got = node_memory_bytes(2, 4096)
    sw = SwitchState(0, TableConfig(d=2, s=4096, seeds=(1, 2)), rng_seed=1)
    run_cycle([sw], Network(NetworkConfig(n=1)))
    held = held_bytes(sw)
    ok = got == held == 294_912
    assert _verdict(4, "d=2, s=4096 switch costs and holds 294,912 bytes (288KB)", ok,
                    f"{got} bytes charged, {held} held after a cycle")


def _full_population(n: int, s: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    ids, counts = full_table(s, seeds)
    l_ids = np.repeat(ids[np.newaxis], n, axis=0).copy()
    l_counts = np.repeat(counts[np.newaxis], n, axis=0).copy()
    return l_ids, l_counts


def test_criterion_5_message_scaling_110x():
    t0 = time.monotonic()
    s = 4096
    seeds = (11, 22)
    config = TableConfig(d=2, s=s, seeds=seeds)
    entries = 2 * s
    delivered = {}
    for n in (10, 100):
        l_ids, l_counts = _full_population(n, s, seeds)
        res = run_cycle_arrays(l_ids, l_counts, config)
        delivered[n] = res.delivered
        assert int(np.count_nonzero(res.g_ids)) == entries  # tables stay full

    analytic10 = flat_message_count(10, entries)
    analytic100 = flat_message_count(100, entries)
    ok = delivered[10] == analytic10 == 1_474_560
    ok &= delivered[100] == analytic100 == 162_201_600
    ok &= delivered[100] * 9 == delivered[10] * 990  # ratio exactly 110

    # the object model with its simulated transport matches the same form
    cfg = TableConfig(d=2, s=32, seeds=seeds)
    small_ids, small_counts = full_table(32, seeds)
    switches = [switch_from_arrays(i, cfg, small_ids, small_counts) for i in range(5)]
    net = Network(NetworkConfig(n=5, seed=1))
    stats = run_cycle(switches, net)
    ok &= stats.delivered == flat_message_count(5, 64)

    detail = (
        f"n=10: {delivered[10]:,}, n=100: {delivered[100]:,}, "
        f"ratio {delivered[100] / delivered[10]:g}, {time.monotonic() - t0:.1f}s"
    )
    assert _verdict(5, "full-table messages scale as n(n-1): exactly 110x from 10 to 100", ok, detail)


def test_criterion_6_clustering_reduction():
    t0 = time.monotonic()
    s = 4096
    seeds = (11, 22)
    config = TableConfig(d=2, s=s, seeds=seeds)
    entries = 2 * s
    n, c = 100, 10

    l_ids, l_counts = _full_population(n, s, seeds)
    plan = partition(n, c, seed=3)
    res = run_clustered_arrays(l_ids, l_counts, config, plan)
    analytic = clustered_message_count(n, c, entries)
    flat = flat_message_count(n, entries)

    ok = res.delivered == analytic == 16_957_440
    ok &= res.phase_delivered == (14_745_600, 1_474_560, 737_280)
    ok &= res.delivered <= 0.15 * flat
    ok &= int(np.count_nonzero(res.query_ids)) == entries

    # object-model cross-check at a smaller full configuration
    cfg = TableConfig(d=2, s=16, seeds=(41, 42))
    small_ids, small_counts = full_table(16, (41, 42))
    switches = [switch_from_arrays(i, cfg, small_ids, small_counts) for i in range(12)]
    stats = run_clustered(switches, partition(12, 3, seed=5), NetworkConfig(n=12, seed=6))
    ok &= stats.delivered == clustered_message_count(12, 3, 32)

    detail = (
        f"{res.delivered:,} vs flat {flat:,} "
        f"({100 * res.delivered / flat:.2f}%), {time.monotonic() - t0:.1f}s"
    )
    assert _verdict(6, "n=100 in 10 clusters sends an exact closed-form ~10.5% of flat", ok, detail)


def test_criterion_7_recall_at_desk_scale():
    t0 = time.monotonic()
    headline = ExperimentConfig(
        n_switches=10, d=2, s=4096, k=128, seeds=(1, 2, 3, 4, 5),
        zipf_a=1.0, num_packets=2_000_000, num_flows=200_000,
        affinity=1.0, engine="arrays",
    )
    recalls = [run_seed(headline, sd).recall for sd in headline.seeds]
    avg = sum(recalls) / len(recalls)
    ok = avg >= 0.95

    curves = {}
    cache = {}
    for a in (0.6, 0.8, 1.0):
        curve = []
        for s in (256, 512, 1024, 2048, 4096):
            cfg = ExperimentConfig(
                n_switches=10, d=2, s=s, k=128, seeds=(1, 2, 3),
                zipf_a=a, num_packets=500_000, num_flows=50_000,
                affinity=1.0, engine="arrays",
            )
            vals = []
            for sd in cfg.seeds:
                if (a, sd) not in cache:
                    trace = load_trace(cfg, sd)
                    truth = exact_topk(trace, cfg.k)
                    split = SplitPlan(
                        k=cfg.k, n_switches=cfg.n_switches,
                        affinity=cfg.affinity, seed=derive_seed(sd, 11),
                    )
                    cache[(a, sd)] = (split_stream(trace, split), truth)
                streams, truth = cache[(a, sd)]
                vals.append(run_on_streams(cfg, sd, streams, truth).recall)
            curve.append(sum(vals) / len(vals))
        curves[a] = curve
        dips = [max(0.0, curve[i] - curve[i + 1]) for i in range(len(curve) - 1)]
        dips = [x for x in dips if x > 0]
        ok &= len(dips) <= 1 and all(x <= 0.02 for x in dips)

    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    detail = (
        f"headline avg {avg:.4f}; curves "
        + "; ".join(f"zipf {a}: {[round(x, 3) for x in c]}" for a, c in curves.items())
        + f"; {elapsed:.1f}s"
    )
    assert _verdict(7, "recall >= 0.95 at the 288KB budget, non-decreasing in s", ok, detail)


def test_criterion_8_single_switch_degeneracy():
    ok = True
    checked = 0
    for seed in range(10):
        cfg = TableConfig(d=1, s=256, seeds=(derive_seed(seed, 1) & 0xFFFFFFFF,))
        sw = SwitchState(0, cfg, rng_seed=derive_seed(seed, 2))
        trace = gen_zipf(1.0, 4000, 300, seed=seed)
        ingest(sw.l_topk, trace.packets)
        local = sorted_entries(sw.l_topk.table)
        net = Network(NetworkConfig(n=1, seed=seed))
        run_cycle([sw], net)
        ok &= sorted_entries(sw.query) == local
        ok &= all(
            sw.query_flow(f) == local_estimate(sw.l_topk, f)
            for f in range(1, trace.num_flows + 1)
        )

        # same degeneracy through the array engine
        l_ids = np.zeros((1, cfg.d, cfg.s), dtype=np.uint64)
        l_counts = np.zeros_like(l_ids)
        ingest_arrays(
            l_ids[0], l_counts[0], cfg,
            np.uint64(derive_seed(seed, 2)), trace.packets.astype(np.uint64),
        )
        res = run_cycle_arrays(l_ids, l_counts, cfg)
        ok &= bool(np.array_equal(res.g_ids, l_ids[0]))
        ok &= bool(np.array_equal(res.g_counts, l_counts[0]))
        ok &= res.delivered == 0
        checked += 1
    assert _verdict(
        8, "n=1 query table equals the local table exactly", ok, f"{checked} seeds x 2 engines"
    )


def test_criterion_9_loss_resilience():
    ok = True
    dropped_total = 0
    for seed in (1, 2, 3):
        cfg = TableConfig(
            d=2, s=64,
            seeds=tuple(derive_seed(seed, 0x5EED0 + i) & 0xFFFFFFFF for i in range(2)),
        )

        def population():
            switches = []
            trace = gen_zipf(1.0, 8000, 400, seed=seed)
            streams = split_stream(
                trace, SplitPlan(k=16, n_switches=4, affinity=0.9, seed=seed)
            )
            for i in range(4):
                sw = SwitchState(i, cfg, rng_seed=derive_seed(seed, 0x100 + i))
                ingest(sw.l_topk, streams[i])
                switches.append(sw)
            return switches

        lossless = population()
        net_a = Network(NetworkConfig(n=4, seed=50 + seed))
        stats_a = run_cycle(lossless, net_a)
        net_a.audit_exactly_once()

        lossy = population()
        net_b = Network(
            NetworkConfig(
                n=4, drop_probability=0.3,
                delivery_order=DeliveryOrder.RANDOM, seed=90 + seed,
            )
        )
        stats_b = run_cycle(lossy, net_b)
        net_b.audit_exactly_once()  # every (receiver, entry, round) exactly once

        ok &= stats_b.dropped > 0
        ok &= stats_a.delivered == stats_b.delivered
        for a, b in zip(lossless, lossy):
            ok &= a.query.equals(b.query)
            ok &= a.g_topk.equals(b.g_topk)
        dropped_total += stats_b.dropped
    assert _verdict(
        9,
        "drop=0.3 runs end with tables identical to lossless and exactly-once delivery",
        ok,
        f"3 seeds, {dropped_total} drops retransmitted",
    )
