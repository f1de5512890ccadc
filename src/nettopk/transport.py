"""Simulated exactly-once broadcast with loss, retransmission, and
round-completion detection.

Senders broadcast the entries of a static table. Each queued copy is
eventually delivered exactly once: a drop reschedules a retransmission
that resends the entry registered for it, which is what a re-read of the
static source slot would return. Registration gives each (receiver,
sender, round) one byte per message, set on delivery; a delivery whose
byte is already set is a duplicate, and a byte still unset at audit time
is a loss. A countdown per (receiver, round) of peers yet to register plus
messages yet to arrive reaches 0 exactly when the round is complete.

A queued copy is one int, its handle. A broadcast registers one record:
sender, round, receivers, its entries as a tuple, and each receiver's
ledger and countdown key. The handle holds the record's index above
COPY_BITS and, below them, seq * fanout + the receiver's position among
the fanout receivers. The whole broadcast is queued at once, about 8 bytes
a copy, and step builds a Message only for the copy it returns.

A broadcast may declare that its delivery requires the receiver to have
completed an earlier round (consolidation packets must not reach a switch
still aggregating). Nothing is delivered inside a broadcast, so whether a
receiver must wait is decided once per receiver; its copies are held aside
and released, in registration order, the moment the prerequisite round
completes. Prerequisite-free rounds are always deliverable, so the network
never stalls.

Delivery order is either FIFO_PER_PAIR (per sender-receiver queue, fair
rotation across queues) or RANDOM (uniform over all deliverable copies).
The RANDOM pool is an array of handles, appended to in enqueue order and
picked by swap-remove. A FIFO pair queue is the run of its original
copies' handles followed by its retransmissions. Everything is
deterministic given the config seed.

Each step() delivers or drops exactly one copy and returns
(delivered, message); it returns None once nothing is deliverable. A
delivery that completes its receiver's round also adds 1 to
rounds_completed, so a caller learns of each completion from the step that
caused it, without asking round_complete after every delivery.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .flowtable import FlowEntry, InvariantError

# A handle is broadcast index << COPY_BITS | seq * fanout + position, so
# that every handle fits in an int64.
COPY_BITS = 40
COPY_MASK = (1 << COPY_BITS) - 1
MAX_BROADCASTS = 1 << (63 - COPY_BITS)


class DeliveryOrder(Enum):
    FIFO_PER_PAIR = "fifo_per_pair"
    RANDOM = "random"


@dataclass(frozen=True)
class NetworkConfig:
    n: int
    drop_probability: float = 0.0
    delivery_order: DeliveryOrder = DeliveryOrder.FIFO_PER_PAIR
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one switch")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")


@dataclass(slots=True)
class Message:
    """The copy of entry seq of sender's round_key broadcast that one step
    delivered or dropped; step builds it from the copy's handle."""

    receiver: int
    sender: int
    round_key: object
    seq: int
    entry: FlowEntry


@dataclass(slots=True)
class _PairQueue:
    """One FIFO sender-receiver queue: the handles next, next + stride, ...
    below stop, its original copies in seq order, then its retransmissions."""

    next: int
    stop: int
    stride: int
    retries: deque | None = None


@dataclass(slots=True)
class _Broadcast:
    """One registered (sender, round) broadcast; per receiver position, its
    ledger, its countdown key and, under FIFO order, its pair queue."""

    sender: int
    round_key: object
    receivers: tuple
    entries: tuple
    seen: list
    left_keys: list
    queues: list


class Network:
    """Message sequencer for one set of participants."""

    def __init__(self, config: NetworkConfig, participants=(), record_events: bool = False) -> None:
        self.config = config
        self.participants = tuple(participants) or tuple(range(config.n))
        if len(self.participants) != config.n:
            raise InvariantError(f"{len(self.participants)} participants, config has n={config.n}")
        self.record_events = record_events
        self.delivered_count = 0
        self.dropped_count = 0
        self.enqueued_count = 0
        # deliveries that completed their receiver's round
        self.rounds_completed = 0
        self.events: list[str] = []
        self._rng = random.Random(config.seed)
        self._drop = config.drop_probability
        self._random_order = config.delivery_order is DeliveryOrder.RANDOM
        self._peers = config.n - 1
        self._broadcasts: list[_Broadcast] = []
        self._registered: set[tuple] = set()
        # per (receiver, round): peers yet to register plus messages yet to
        # arrive; neither term goes negative, so 0 means the round is complete
        self._left: dict[tuple, int] = {}
        self._requires: dict[object, object] = {}
        self._time = 0
        # deliverable copies: the RANDOM pool of handles, or the FIFO pair
        # queues that hold any, in rotation order
        self._ready = array("q")
        self._rotation: deque[_PairQueue] = deque()
        # (broadcast index, receiver position) waiting on (receiver, prerequisite round)
        self._blocked: dict[tuple, list[tuple[int, int]]] = {}

    # enqueue plumbing

    def _log(self, kind: str, round_key, sender, receiver, entry: FlowEntry) -> None:
        self.events.append(f"{self._time},{kind},{round_key},{sender},{receiver},{entry.id},{entry.count}")

    def _open(self, index: int, positions) -> None:
        """Make broadcast index's original copies to the receivers at positions deliverable."""
        rec = self._broadcasts[index]
        fanout = len(rec.receivers)
        base = index << COPY_BITS
        stop = base + len(rec.entries) * fanout
        if self._random_order:
            if len(positions) == fanout:
                self._ready.extend(range(base, stop))
            else:
                self._ready.extend(h + pos for h in range(base, stop, fanout) for pos in positions)
            return
        for pos in positions:
            q = _PairQueue(base + pos, stop + pos, fanout)
            rec.queues[pos] = q
            self._rotation.append(q)

    def _requeue(self, handle: int) -> None:
        """Queue a dropped copy again: last in the RANDOM pool, or last in its FIFO pair queue."""
        if self._random_order:
            self._ready.append(handle)
            return
        rec = self._broadcasts[handle >> COPY_BITS]
        q = rec.queues[(handle & COPY_MASK) % len(rec.receivers)]
        if q.next == q.stop and not q.retries:
            self._rotation.append(q)
        if q.retries is None:
            q.retries = deque()
        q.retries.append(handle)

    def _release(self, receiver_round) -> None:
        waiting = self._blocked.pop(receiver_round, None)
        if waiting:
            for index, pos in waiting:
                self._open(index, (pos,))

    def broadcast(self, sender, round_key, entries, requires=None) -> None:
        """Register and enqueue one round's entries from sender to every other participant.

        entries is a sized sequence of FlowEntry from the sender's static
        table. Entry seq is its seq-th item, and every retransmission of
        entry seq resends that item, which is what a re-read of the static
        slot would return. requires names a round the receiver must have
        completed before delivery is allowed.
        """
        if sender not in self.participants:
            raise InvariantError(f"sender {sender} is not a participant")
        if (sender, round_key) in self._registered:
            raise InvariantError(f"duplicate registration of round {round_key} from {sender}")
        index = len(self._broadcasts)
        receivers = tuple(p for p in self.participants if p != sender)
        count = len(entries)
        if index >= MAX_BROADCASTS or count * len(receivers) > COPY_MASK + 1:
            raise InvariantError(
                f"broadcast {index} of {count} entries to {len(receivers)} receivers "
                f"does not fit the {MAX_BROADCASTS}-broadcast handle layout"
            )
        if requires is not None:
            prev = self._requires.setdefault(round_key, requires)
            if prev != requires:
                raise InvariantError(f"round {round_key} requires {prev}, not {requires}")
        self._registered.add((sender, round_key))
        left_keys = [(receiver, round_key) for receiver in receivers]
        for rk in left_keys:
            self._left[rk] = self._left.get(rk, self._peers) - 1 + count
        rec = _Broadcast(
            sender, round_key, receivers, tuple(entries),
            [bytearray(count) for _ in receivers], left_keys, [None] * len(receivers),
        )
        self._broadcasts.append(rec)
        self.enqueued_count += count * len(receivers)
        if self.record_events:
            for entry in rec.entries:
                for receiver in receivers:
                    self._log("ENQ", round_key, sender, receiver, entry)
        if not count:
            return
        if requires is None:
            positions = range(len(receivers))
        else:
            positions = []
            for pos, receiver in enumerate(receivers):
                if self._left.get((receiver, requires), self._peers):
                    self._blocked.setdefault((receiver, requires), []).append((index, pos))
                else:
                    positions.append(pos)
        self._open(index, positions)

    # delivery

    def _pick(self) -> int | None:
        if self._random_order:
            ready = self._ready
            n = len(ready)
            if not n:
                return None
            # randrange(n) as CPython 3.11 computes it, without its call layers
            k = n.bit_length()
            idx = self._rng.getrandbits(k)
            while idx >= n:
                idx = self._rng.getrandbits(k)
            handle = ready[idx]
            ready[idx] = ready[-1]
            ready.pop()
            return handle
        rotation = self._rotation
        if not rotation:
            return None
        q = rotation.popleft()
        handle = q.next
        if handle != q.stop:
            q.next = handle + q.stride
        else:
            handle = q.retries.popleft()
        if q.next != q.stop or q.retries:
            rotation.append(q)
        return handle

    def step(self) -> tuple[bool, Message] | None:
        """Deliver or drop the next deliverable copy; None when idle.

        Returns (True, msg) for a delivery and (False, msg) for a drop,
        whose retransmission is already enqueued.
        """
        handle = self._pick()
        if handle is None:
            if any(self._blocked.values()):
                raise InvariantError("transport stalled on blocked messages")
            return None
        self._time += 1
        rec = self._broadcasts[handle >> COPY_BITS]
        seq, pos = divmod(handle & COPY_MASK, len(rec.receivers))
        msg = Message(rec.receivers[pos], rec.sender, rec.round_key, seq, rec.entries[seq])
        if self._drop and self._rng.random() < self._drop:
            self.dropped_count += 1
            if self.record_events:
                self._log("DROP", msg.round_key, msg.sender, msg.receiver, msg.entry)
                self._log("ENQ", msg.round_key, msg.sender, msg.receiver, msg.entry)
            self.enqueued_count += 1
            # the dropped copy was deliverable, so its receiver had completed
            # any prerequisite round, and a completed round stays complete
            self._requeue(handle)
            return False, msg
        self.delivered_count += 1
        if self.record_events:
            self._log("DELIVER", msg.round_key, msg.sender, msg.receiver, msg.entry)
        seen = rec.seen[pos]
        if seen[seq]:
            raise InvariantError(
                f"duplicate delivery of message {seq} from {msg.sender} to {msg.receiver} "
                f"in round {msg.round_key}"
            )
        seen[seq] = 1
        rk = rec.left_keys[pos]
        left = self._left[rk] - 1
        self._left[rk] = left
        if not left:
            self.rounds_completed += 1
            self._release(rk)
        return True, msg

    def round_complete(self, receiver, round_key) -> bool:
        return self._left.get((receiver, round_key), self._peers) == 0

    def audit_exactly_once(self) -> None:
        """Raise InvariantError unless every registered message was delivered exactly once."""
        registered = 0
        for rec in self._broadcasts:
            for receiver, seen in zip(rec.receivers, rec.seen):
                if 0 in seen:
                    raise InvariantError(f"message {seen.index(0)} from {rec.sender} to {receiver} lost")
                registered += len(seen)
        if self.delivered_count != registered:
            raise InvariantError(f"{self.delivered_count} deliveries for {registered} registered messages")
