"""Exactly-once broadcast: loss, retransmission, ordering, round gating."""

import tracemalloc
from collections import deque
from typing import NamedTuple

import pytest

from nettopk.flowtable import FlowEntry, InvariantError
from nettopk import transport
from nettopk.transport import DeliveryOrder, Network, NetworkConfig


def make_net(n, drop=0.0, order=DeliveryOrder.FIFO_PER_PAIR, seed=0, record=False):
    return Network(NetworkConfig(n=n, drop_probability=drop, delivery_order=order,
                                 seed=seed), record_events=record)


class Delivery(NamedTuple):
    receiver: int
    round_key: object
    sender: int
    entry: FlowEntry


class Deliveries(dict):
    """Handlers for every (receiver, round) key; each appends its deliveries to log."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __missing__(self, key):
        return lambda sender, entry: self.log.append(Delivery(*key, sender, entry))


def drain(net):
    """Step until idle; returns the deliveries in order."""
    handlers = Deliveries()
    while net.step(handlers) is not None:
        pass
    return handlers.log


class Stop(Exception):
    pass


def stop(sender, entry):
    """A handler that ends its step after the first delivery."""
    raise Stop


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(n=0)
    with pytest.raises(ValueError):
        NetworkConfig(n=2, drop_probability=1.0)
    with pytest.raises(ValueError):
        NetworkConfig(n=2, drop_probability=-0.1)


def test_lossless_exactly_once():
    net = make_net(3)
    payload = [FlowEntry(i + 1, 10 * (i + 1)) for i in range(4)]
    for sender in range(3):
        net.broadcast(sender, "r", payload)
    events = drain(net)
    assert len(events) == 3 * 2 * 4
    assert sorted(events) == sorted(Delivery(r, "r", sender, entry) for sender in range(3)
                                    for r in range(3) if r != sender for entry in payload)
    net.audit_exactly_once()
    assert net.delivered_count == 24
    assert net.dropped_count == 0
    assert all(net.round_complete(r, "r") for r in range(3))


def test_drops_are_retransmitted_until_delivered():
    net = make_net(2, drop=0.5, seed=11, record=True)
    payload = [FlowEntry(i + 1, i + 1) for i in range(16)]
    net.broadcast(0, "r", payload)
    events = drain(net)
    copies = [line.split(",") for line in net.events if line.split(",")[1] in ("DROP", "DELIVER")]
    drops = [fields for fields in copies if fields[1] == "DROP"]
    assert drops  # at p=0.5 over 16 messages this seed drops plenty
    assert net.dropped_count == len(drops)
    net.audit_exactly_once()
    # each seq is delivered once, and every copy of it, dropped or
    # delivered, carries the entry registered for it; entry seq has id seq + 1
    assert sorted(d.entry for d in events) == payload
    assert all(payload[int(fid) - 1] == (int(fid), int(count)) for *_, fid, count in copies)


def test_round_completion_needs_every_peer():
    net = make_net(3)
    payload = [FlowEntry(1, 1)]
    net.broadcast(0, "r", payload)
    drain(net)
    assert not net.round_complete(2, "r")  # switch 1 has not broadcast yet
    net.broadcast(1, "r", payload)
    drain(net)
    assert net.round_complete(2, "r")


def test_zero_entry_broadcasts_complete_rounds():
    net = make_net(3)
    for sender in range(3):
        net.broadcast(sender, "r", [])
    assert drain(net) == []
    for receiver in range(3):
        assert net.round_complete(receiver, "r")
    net.audit_exactly_once()


def test_dependent_round_held_until_prerequisite_completes():
    net = make_net(2, record=True)
    first = [FlowEntry(1, 1), FlowEntry(2, 2)]
    second = [FlowEntry(3, 3)]
    net.broadcast(0, "a", first)
    net.broadcast(0, "b", second, requires="a")
    # receiver 1's round "a" is incomplete until both entries arrive
    handlers = Deliveries()
    assert net.step(handlers) == 1
    assert net.round_complete(1, "a")
    assert [d.round_key for d in handlers.log] == ["a", "a"]  # nothing from "b" slipped through
    assert net.step(handlers) == 1
    assert net.step(handlers) is None
    assert [d.round_key for d in handlers.log[2:]] == ["b"]
    net.audit_exactly_once()


def test_prerequisite_already_met_delivers_immediately():
    net = make_net(2)
    net.broadcast(0, "a", [FlowEntry(1, 1)])
    drain(net)
    assert net.round_complete(1, "a")
    net.broadcast(0, "b", [FlowEntry(2, 2)], requires="a")
    events = drain(net)
    assert [d.round_key for d in events] == ["b"]


def test_round_completed_by_registration_releases_held_copies():
    net = make_net(3)
    net.broadcast(0, "b", [FlowEntry(3, 3)], requires="a")  # held: no receiver has completed "a"
    # each empty broadcast completes "a" somewhere as it registers: sender
    # 1's at receiver 2, sender 2's at receivers 0 and 1, and the held
    # copies are released in that order
    for sender in range(3):
        net.broadcast(sender, "a", [])
    assert [(d.receiver, d.round_key) for d in drain(net)] == [(2, "b"), (1, "b")]
    net.audit_exactly_once()


def test_entries_dropped_at_each_broadcasts_last_delivery():
    net = make_net(3)
    net.broadcast(0, "r", [FlowEntry(1, 1)])
    net.broadcast(1, "r", [FlowEntry(2, 2)])
    drain(net)
    # every copy of both broadcasts is delivered, so both drop their entries,
    # although 0 and 1 still wait on 2's broadcast to complete "r"
    assert [rec.entries for rec in net._broadcasts] == [(), ()]
    assert not net.round_complete(0, "r") and not net.round_complete(1, "r")
    net.broadcast(2, "r", [])  # completes "r" at 0 and 1 as it registers
    assert all(net.round_complete(r, "r") for r in range(3))
    net.audit_exactly_once()


def test_permanently_blocked_messages_are_a_stall():
    net = make_net(3)
    # sender 0 never completes round "a" for receiver 1 (sender 2 missing)
    net.broadcast(0, "a", [FlowEntry(1, 1)])
    net.broadcast(0, "b", [FlowEntry(2, 2)], requires="a")
    with pytest.raises(AssertionError):
        drain(net)


def test_fifo_per_pair_preserves_sequence_order():
    net = make_net(3, order=DeliveryOrder.FIFO_PER_PAIR, seed=4)
    payload = [FlowEntry(i + 1, i + 1) for i in range(8)]
    for sender in range(3):
        net.broadcast(sender, "r", payload)
    events = drain(net)
    per_pair = {}
    for d in events:
        per_pair.setdefault((d.sender, d.receiver), []).append(d.entry.id - 1)
    for seqs in per_pair.values():
        assert seqs == sorted(seqs)


def test_random_order_is_seed_deterministic():
    def run(seed):
        net = make_net(3, order=DeliveryOrder.RANDOM, seed=seed)
        payload = [FlowEntry(i + 1, i + 1) for i in range(8)]
        for sender in range(3):
            net.broadcast(sender, "r", payload)
        return [(d.sender, d.receiver, d.entry.id - 1) for d in drain(net)]

    a = run(7)
    b = run(7)
    c = run(8)
    assert a == b
    assert sorted(a) == sorted(c)  # same multiset, different schedule
    assert a != c


def test_duplicate_round_registration_rejected():
    net = make_net(2)
    net.broadcast(0, "r", [FlowEntry(1, 1)])
    with pytest.raises(AssertionError):
        net.broadcast(0, "r", [FlowEntry(1, 1)])


def test_non_participant_sender_rejected():
    net = make_net(2)
    with pytest.raises(InvariantError, match="sender 5 is not a participant"):
        net.broadcast(5, "r", [FlowEntry(1, 1)])
    # nothing was registered: neither participant's round counts a peer as done
    assert not net.round_complete(0, "r")
    assert not net.round_complete(1, "r")
    assert drain(net) == []


def test_audit_flags_incomplete_round():
    net = make_net(2)
    net.broadcast(0, "r", [FlowEntry(1, 1), FlowEntry(2, 2)])
    with pytest.raises(Stop):
        net.step({(1, "r"): stop})  # deliver only one of two
    with pytest.raises(AssertionError, match="message 1 from 0 to 1 lost"):
        net.audit_exactly_once()


def test_duplicate_delivery_rejected():
    net = make_net(2)
    payload = [FlowEntry(1, 1), FlowEntry(2, 2)]
    net.broadcast(0, "r", payload)
    # a second copy of seq 0, queued behind seq 1 as a retransmission in
    # the one pair queue
    (queue,) = net._rotation
    queue.retries = deque([0])
    handlers = Deliveries()
    assert net.step(handlers) == 1
    assert [d.entry for d in handlers.log] == payload
    with pytest.raises(InvariantError, match="duplicate delivery of message 0 from 0 to 1"):
        net.step(handlers)
    assert net.step(handlers) is None
    # every byte is set, but one delivery too many was counted
    with pytest.raises(InvariantError, match="3 deliveries for 2 registered messages"):
        net.audit_exactly_once()


def test_ledger_memory_after_drain():
    payload = [FlowEntry(i + 1, 1) for i in range(50_000)]
    tracemalloc.start()
    try:
        net = make_net(2, drop=0.2, seed=1)
        net.broadcast(0, "r", payload)
        while net.step({(1, "r"): lambda sender, entry: None}) is not None:
            pass
        net.audit_exactly_once()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.delivered_count == len(payload)
    assert held < 2**20, f"{held / 2**20:.2f} MiB held after a {len(payload)}-message drain"


@pytest.mark.parametrize("order", list(DeliveryOrder))
def test_queued_copies_take_a_few_bytes_each(order):
    # five senders of 2000 entries to four receivers each, then one round
    # that no receiver may take yet, its copies held aside
    n, count = 5, 2000
    payload = [FlowEntry(i + 1, 1) for i in range(count)]
    tracemalloc.start()
    try:
        net = make_net(n, drop=0.1, order=order, seed=2)
        for sender in range(n):
            net.broadcast(sender, "a", payload)
        net.broadcast(0, "b", payload, requires="a")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.enqueued_count == (n + 1) * (n - 1) * count
    per_copy = held / net.enqueued_count
    assert per_copy < 16, f"{per_copy:.1f} bytes per queued copy"
    drain(net)
    net.audit_exactly_once()
    assert net.delivered_count == net.enqueued_count - net.dropped_count


def test_broadcasts_beyond_the_handle_layout_rejected(monkeypatch):
    net = make_net(3)
    payload = [FlowEntry(1, 1)]
    # 2**40 + 2 copies do not fit below the broadcast index; the check reads
    # only len(), so nothing is copied or registered
    with pytest.raises(InvariantError, match="handle layout"):
        net.broadcast(0, "r", range((1 << 39) + 1))
    monkeypatch.setattr(transport, "MAX_BROADCASTS", 2)
    net.broadcast(0, "r", payload)
    net.broadcast(1, "r", payload)
    with pytest.raises(InvariantError, match="broadcast 2 of 1 entries"):
        net.broadcast(2, "r", payload)
    # the rejected broadcast registered no ledger the audit could find unset
    assert len(drain(net)) == 4
    net.audit_exactly_once()


def test_event_log_format():
    net = make_net(2, drop=0.4, seed=3, record=True)
    net.broadcast(0, "r", [FlowEntry(9, 90), FlowEntry(8, 80)])
    drain(net)
    assert net.events
    kinds = set()
    for line in net.events:
        fields = line.split(",")
        assert len(fields) == 7
        int(fields[0])  # time
        kinds.add(fields[1])
        assert fields[2] == "r"
        assert int(fields[5]) in (8, 9)
        assert int(fields[6]) in (80, 90)
    assert "ENQ" in kinds and "DELIVER" in kinds


def test_counters_track_enqueues():
    net = make_net(2, drop=0.5, seed=5)
    net.broadcast(0, "r", [FlowEntry(i + 1, 1) for i in range(10)])
    drain(net)
    assert net.enqueued_count == 10 + net.dropped_count
    assert net.delivered_count == 10
