"""The work one object-model cycle does per message.

A RANDOM pick draws the index randrange would, without calling it. A
round's completion is decided by the delivery that completes it, so
completion checks grow with rounds, not deliveries. Every id a cycle's
messages carry is hashed once, in bulk, and the handlers' table accesses
are the same as with ids hashed one at a time.
"""

import random

import pytest

from helpers import ingested_switches
from nettopk import cluster, flowtable, protocol
from nettopk.cluster import partition, run_clustered
from nettopk.flowtable import AccessLog, FlowEntry, SlotMap, TableConfig, hash_index
from nettopk.protocol import SwitchState, run_cycle
from nettopk.transport import DeliveryOrder, Network, NetworkConfig

CFG = TableConfig(d=2, s=64, seeds=(31, 77))


def test_random_pick_draws_the_randrange_sequence():
    # one receiver, so the ready list holds seqs 0..count-1 in order and
    # drains through every length from count down to 1: each power of two
    # up to 4096 and the lengths on both sides of it
    seed, count = 11, 4097
    net = Network(NetworkConfig(n=2, delivery_order=DeliveryOrder.RANDOM, seed=seed))
    net.broadcast(0, "r", [FlowEntry(seq + 1, 1) for seq in range(count)])
    picks = []
    handlers = {(1, "r"): lambda sender, entry: picks.append(entry.id - 1)}
    while net.step(handlers) is not None:
        pass
    rng = random.Random(seed)
    ready = list(range(count))
    expected = []
    while ready:
        idx = rng.randrange(len(ready))
        expected.append(ready[idx])
        ready[idx] = ready[-1]
        ready.pop()
    assert len(picks) == count
    assert picks == expected


@pytest.mark.parametrize("empty_switch", [False, True])
def test_round_completion_is_decided_once(monkeypatch, empty_switch):
    n = 5
    switches = ingested_switches(n, CFG, stream_seed=3)
    if empty_switch:
        switches[2] = SwitchState(2, CFG, rng_seed=9)
    calls = []
    completions = []
    original = Network.round_complete
    original_step = Network.step

    def counted(self, receiver, round_key):
        calls.append((receiver, round_key))
        return original(self, receiver, round_key)

    def counted_step(self, handlers):
        receiver = original_step(self, handlers)
        if receiver is not None:
            completions.append(receiver)
        return receiver

    monkeypatch.setattr(Network, "round_complete", counted)
    monkeypatch.setattr(Network, "step", counted_step)
    net = Network(NetworkConfig(n=n, drop_probability=0.2, delivery_order=DeliveryOrder.RANDOM,
                                seed=5))
    run_cycle(switches, net)
    empty_cons = sum(1 for sw in switches if sw.sum.occupancy() == 0)
    assert empty_cons == int(empty_switch)
    # each switch has two rounds; without empty broadcasts a delivery
    # completes each of them, and with one some may complete as the empty
    # broadcast registers, found by a re-check instead
    assert len(completions) <= 2 * n
    assert empty_switch or len(completions) == 2 * n
    # checks: every switch once after the AGG broadcasts, the receiver of
    # each completing delivery, each switch again as it ends aggregation,
    # and its peers when its own CONS broadcast is empty
    assert len(calls) <= 2 * n + len(completions) + (n - 1) * empty_cons
    assert net.dropped_count > 0
    assert net.delivered_count > 20 * len(calls)


def _forbid_scalar_hashing(monkeypatch):
    def boom(*args):
        raise AssertionError("hash_index called during a cycle")

    for module in (flowtable, protocol, cluster):
        if hasattr(module, "hash_index"):
            monkeypatch.setattr(module, "hash_index", boom)


def test_flat_cycle_hashes_ids_only_in_bulk(monkeypatch):
    n = 5
    expected = ingested_switches(n, CFG, stream_seed=4)
    switches = ingested_switches(n, CFG, stream_seed=4)
    config = NetworkConfig(n=n, drop_probability=0.2, delivery_order=DeliveryOrder.RANDOM, seed=2)
    run_cycle(expected, Network(config))
    _forbid_scalar_hashing(monkeypatch)
    run_cycle(switches, Network(config))
    for sw, ref in zip(switches, expected):
        assert sw.query.equals(ref.query)


def test_clustered_cycle_hashes_ids_only_in_bulk(monkeypatch):
    n = 6
    plan = partition(n, 2, seed=1)
    config = NetworkConfig(n=n, drop_probability=0.1, delivery_order=DeliveryOrder.FIFO_PER_PAIR,
                           seed=3)
    expected = ingested_switches(n, CFG, stream_seed=5)
    switches = ingested_switches(n, CFG, stream_seed=5)
    run_clustered(expected, plan, config)
    _forbid_scalar_hashing(monkeypatch)
    run_clustered(switches, plan, config)
    for sw, ref in zip(switches, expected):
        assert sw.query.equals(ref.query)


def test_slot_map_agrees_with_hash_index():
    switches = ingested_switches(3, CFG, stream_seed=6)
    tables = [sw.l_topk.table for sw in switches]
    slots = SlotMap(CFG, tables)
    held = {fid for t in tables for row in t.ids for fid in row if fid}
    assert set(slots) == held
    for fid in held:
        assert slots[fid] == tuple(hash_index(CFG, i, fid) for i in range(CFG.d))
    assert 0 not in slots
    # an id no table holds is hashed on lookup, and not stored
    absent = max(held) + 1
    assert SlotMap(CFG)[absent] == slots[absent] == (hash_index(CFG, 0, absent),
                                                     hash_index(CFG, 1, absent))
    assert absent not in slots


def test_handlers_access_tables_alike_with_either_hashing():
    """A switch using a cycle's SlotMap and one hashing each id as it comes
    make the same accesses in the same order and end with the same tables."""
    peers = ingested_switches(3, CFG, stream_seed=7)
    pair = []
    for _ in range(2):
        sw = SwitchState(0, CFG, rng_seed=1)
        sw.l_topk.table = peers[0].l_topk.table
        sw.begin_cycle()
        pair.append(sw)
    shared, scalar = pair
    for sw in peers[1:]:
        sw.begin_cycle()
    shared.slots = SlotMap(CFG, [shared.snapshot] + [sw.snapshot for sw in peers[1:]])
    assert not scalar.slots

    incoming = [e for sw in peers[1:] for e in sw.snapshot.entries()]

    def deliver_all(handle):
        for entry in incoming:
            logs = []
            for sw in pair:
                log = AccessLog()
                getattr(sw, handle)(1, entry, log)
                logs.append(log.records)
            assert logs[0] and logs[0] == logs[1]

    deliver_all("handle_aggregation_packet")
    assert shared.sum.equals(scalar.sum)
    for sw in pair:
        sw.end_aggregation()
    deliver_all("handle_consolidation_packet")
    assert shared.g_topk.equals(scalar.g_topk)
