"""Simulated exactly-once broadcast with loss, retransmission, and
round-completion detection.

Senders broadcast the entries of a static table. Each queued copy is
eventually delivered exactly once: a drop reschedules a retransmission
that resends the entry registered for it, which is what a re-read of the
static source slot would return. Registration gives each (receiver,
sender, round) one byte per message, set on delivery; a delivery whose
byte is already set is a duplicate, and a byte still unset at audit time
is a loss. A countdown per (receiver, round) of peers yet to register plus
messages yet to arrive reaches 0 exactly when the round is complete. A
count per broadcast of its undelivered copies reaches 0 at its last
delivery, when no copy of it is left to send, and the broadcast drops its
entries.

A broadcast registers one record: sender, round, receivers, its entries as
a tuple, and each receiver's ledger and countdown key. The whole broadcast
is queued at once. Under RANDOM order a queued copy is one int, its
handle: the record's index above COPY_BITS and, below them, seq * fanout +
the receiver's position among the fanout receivers, about 8 bytes a copy.
Under FIFO_PER_PAIR order a pair queue holds its record, the receiver's
position and a run of seqs, so a copy costs a few bytes and its pick
decodes nothing.

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
picked by swap-remove. A FIFO pair queue is the run of its original seqs
followed by its retransmissions. Everything is deterministic given the
config seed.

step(handlers) is the one delivery loop. It picks, drops or delivers
copies, calling handlers[(receiver, round)](sender, entry) for each
delivery, until a delivery completes its receiver's round; it returns that
receiver, so the caller acts on each completion as it happens, or None
once nothing is deliverable.
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
class _PairQueue:
    """One FIFO sender-receiver queue: the seqs next, next + 1, ... below
    stop, its original copies, then its retransmissions, all to the receiver
    at position pos of broadcast rec."""

    rec: "_Broadcast"
    pos: int
    next: int
    stop: int
    retries: deque | None = None


@dataclass(slots=True)
class _Broadcast:
    """One registered (sender, round) broadcast; per receiver position, its
    ledger and its countdown key. undelivered counts its copies yet to be
    delivered, and entries is emptied when it reaches 0, when no copy of it
    is left to send."""

    sender: int
    round_key: object
    receivers: tuple
    entries: tuple
    seen: list
    left_keys: list
    undelivered: int


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
        count = len(rec.entries)
        if self._random_order:
            base = index << COPY_BITS
            stop = base + count * fanout
            if len(positions) == fanout:
                self._ready.extend(range(base, stop))
            else:
                self._ready.extend(h + pos for h in range(base, stop, fanout) for pos in positions)
            return
        self._rotation.extend(_PairQueue(rec, pos, 0, count) for pos in positions)

    def _complete(self, receiver_round) -> None:
        """Receiver completed the round: release the copies waiting on it."""
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
        copies = count * len(receivers)
        if index >= MAX_BROADCASTS or copies > COPY_MASK + 1:
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
        rec = _Broadcast(
            sender, round_key, receivers, tuple(entries),
            [bytearray(count) for _ in receivers], left_keys, copies,
        )
        self._broadcasts.append(rec)
        self.enqueued_count += copies
        if self.record_events:
            for entry in rec.entries:
                for receiver in receivers:
                    self._log("ENQ", round_key, sender, receiver, entry)
        for rk in left_keys:
            left = self._left.get(rk, self._peers) - 1 + count
            self._left[rk] = left
            if not left:
                self._complete(rk)
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

    def step(self, handlers) -> object | None:
        """Deliver or drop copies until a delivery completes its receiver's
        round; return that receiver, or None once nothing is deliverable.

        Each delivery calls handlers[(receiver, round_key)](sender, entry),
        the handler of the countdown key it counts down. A drop queues a
        retransmission: last in the RANDOM pool, or last in its FIFO pair
        queue. A copy whose ledger byte is already set raises before its
        entry is read.
        """
        getrandbits = self._rng.getrandbits
        coin = self._rng.random
        drop = self._drop
        record = self.record_events
        random_order = self._random_order
        broadcasts = self._broadcasts
        ready = self._ready
        rotation = self._rotation
        left = self._left
        time = self._time
        delivered = dropped = 0
        try:
            while True:
                if random_order:
                    n = len(ready)
                    if not n:
                        break
                    # randrange(n) as CPython 3.11 computes it, without its call layers
                    k = n.bit_length()
                    idx = getrandbits(k)
                    while idx >= n:
                        idx = getrandbits(k)
                    handle = ready[idx]
                    ready[idx] = ready[-1]
                    ready.pop()
                    rec = broadcasts[handle >> COPY_BITS]
                    seq, pos = divmod(handle & COPY_MASK, len(rec.receivers))
                else:
                    if not rotation:
                        break
                    q = rotation.popleft()
                    seq = q.next
                    if seq != q.stop:
                        q.next = seq + 1
                    else:
                        seq = q.retries.popleft()
                    if q.next != q.stop or q.retries:
                        rotation.append(q)
                    rec = q.rec
                    pos = q.pos
                time += 1
                if drop and coin() < drop:
                    dropped += 1
                    if record:
                        self._time = time
                        entry = rec.entries[seq]
                        self._log("DROP", rec.round_key, rec.sender, rec.receivers[pos], entry)
                        self._log("ENQ", rec.round_key, rec.sender, rec.receivers[pos], entry)
                    # the dropped copy was deliverable, so its receiver had
                    # completed any prerequisite round, which stays complete
                    if random_order:
                        ready.append(handle)
                    else:
                        if q.next == q.stop and not q.retries:
                            rotation.append(q)
                        if q.retries is None:
                            q.retries = deque()
                        q.retries.append(seq)
                    continue
                delivered += 1
                seen = rec.seen[pos]
                if seen[seq]:
                    raise InvariantError(
                        f"duplicate delivery of message {seq} from {rec.sender} to "
                        f"{rec.receivers[pos]} in round {rec.round_key}"
                    )
                seen[seq] = 1
                entry = rec.entries[seq]
                rk = rec.left_keys[pos]
                if record:
                    self._time = time
                    self._log("DELIVER", rec.round_key, rec.sender, rk[0], entry)
                handlers[rk](rec.sender, entry)
                rec.undelivered -= 1
                if not rec.undelivered:
                    rec.entries = ()
                remaining = left[rk] - 1
                left[rk] = remaining
                if not remaining:
                    self._complete(rk)
                    return rk[0]
        finally:
            self._time = time
            self.delivered_count += delivered
            self.dropped_count += dropped
            self.enqueued_count += dropped
        if any(self._blocked.values()):
            raise InvariantError("transport stalled on blocked messages")
        return None

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
