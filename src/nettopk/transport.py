"""Simulated exactly-once broadcast with loss, retransmission, and
round-completion detection.

Senders broadcast the entries of a static table. Each enqueued message is
eventually delivered exactly once: a drop reschedules a retransmission
that re-reads the same slot from the static source table rather than
buffering the payload. Receivers learn per-sender expected counts at
broadcast registration, so round completion is simply delivered == expected
from every peer.

A broadcast may declare that its delivery requires the receiver to have
completed an earlier round (consolidation packets must not reach a switch
still aggregating). Such messages are held aside per receiver and released
the moment the prerequisite round completes; prerequisite-free rounds are
always deliverable, so the network never stalls.

Delivery order is either FIFO_PER_PAIR (per sender-receiver queue, fair
rotation across queues) or RANDOM (uniform over all deliverable messages).
Everything is deterministic given the config seed.

Each step() delivers or drops exactly one message and returns
(delivered, message), where message is the queued Message itself; it
returns None once nothing is deliverable.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .flowtable import FlowEntry, InvariantError


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


class RoundTracker:
    """Expected vs delivered message counts per (receiver, sender, round).

    _left[(receiver, round)] is peers yet to register plus messages yet to
    arrive; neither term goes negative, so 0 means the round is complete.
    """

    def __init__(self, n_peers: int) -> None:
        self.n_peers = n_peers
        self.expected: dict[tuple, int] = {}
        self.delivered: dict[tuple, int] = {}
        self._left: dict[tuple, int] = {}

    def register(self, receiver, sender, round_key, count: int) -> None:
        key = (receiver, sender, round_key)
        if key in self.expected:
            raise InvariantError(f"duplicate registration {key}")
        self.expected[key] = count
        self.delivered[key] = 0
        rk = (receiver, round_key)
        self._left[rk] = self._left.get(rk, self.n_peers) - 1 + count

    def note_delivery(self, receiver, sender, round_key) -> bool:
        """Count one delivery; returns whether it completed the receiver's round."""
        key = (receiver, sender, round_key)
        self.delivered[key] += 1
        if self.delivered[key] > self.expected[key]:
            raise InvariantError(f"over-delivery at {key}")
        rk = (receiver, round_key)
        self._left[rk] -= 1
        return self._left[rk] == 0

    def complete(self, receiver, round_key) -> bool:
        return self._left.get((receiver, round_key), self.n_peers) == 0


@dataclass(frozen=True, slots=True)
class Message:
    """One queued copy of entry seq of sender's round_key broadcast."""

    receiver: int
    sender: int
    round_key: object
    seq: int
    entry: FlowEntry


@dataclass
class Network:
    """Message sequencer for one set of participants."""

    config: NetworkConfig
    participants: tuple[int, ...] = ()
    record_events: bool = False

    delivered_count: int = 0
    dropped_count: int = 0
    enqueued_count: int = 0
    events: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.participants:
            self.participants = tuple(range(self.config.n))
        else:
            self.participants = tuple(self.participants)
        if len(self.participants) != self.config.n:
            raise InvariantError(f"{len(self.participants)} participants, config has n={self.config.n}")
        self.tracker = RoundTracker(n_peers=self.config.n - 1)
        self._rng = random.Random(self.config.seed)
        self._readers: dict[tuple, object] = {}
        self._requires: dict[object, object] = {}
        self._time = 0
        # deliverable messages
        self._ready: list[Message] = []
        self._queues: dict[tuple, deque] = {}
        self._rotation: deque = deque()
        # messages waiting on (receiver, prerequisite round)
        self._blocked: dict[tuple, list[Message]] = {}
        # delivery audit per (receiver, sender, round, seq)
        self._audit: dict[tuple, int] = {}

    # enqueue plumbing

    def _log(self, kind: str, msg: Message) -> None:
        if self.record_events:
            self.events.append(
                f"{self._time},{kind},{msg.round_key},{msg.sender},{msg.receiver},"
                f"{msg.entry.id},{msg.entry.count}"
            )

    def _enqueue(self, msg: Message) -> None:
        self.enqueued_count += 1
        self._log("ENQ", msg)
        requires = self._requires.get(msg.round_key)
        if requires is not None and not self.tracker.complete(msg.receiver, requires):
            self._blocked.setdefault((msg.receiver, requires), []).append(msg)
            return
        self._make_ready(msg)

    def _make_ready(self, msg: Message) -> None:
        if self.config.delivery_order is DeliveryOrder.RANDOM:
            self._ready.append(msg)
        else:
            key = (msg.sender, msg.receiver, msg.round_key)
            q = self._queues.get(key)
            if q is None:
                q = deque()
                self._queues[key] = q
            if not q:
                self._rotation.append(key)
            q.append(msg)

    def _release(self, receiver, round_key) -> None:
        waiting = self._blocked.pop((receiver, round_key), None)
        if waiting:
            for msg in waiting:
                self._make_ready(msg)

    def broadcast(self, sender, round_key, reader, count: int, requires=None) -> None:
        """Register and enqueue one round's entries from sender to every other participant.

        reader(seq) re-reads entry seq from the sender's static table; it is
        called once per enqueue, including retransmissions. requires names a
        round the receiver must have completed before delivery is allowed.
        """
        self._readers[(sender, round_key)] = reader
        if requires is not None:
            prev = self._requires.setdefault(round_key, requires)
            if prev != requires:
                raise InvariantError(f"round {round_key} requires {prev}, not {requires}")
        receivers = [p for p in self.participants if p != sender]
        for receiver in receivers:
            self.tracker.register(receiver, sender, round_key, count)
        for seq in range(count):
            entry = reader(seq)
            for receiver in receivers:
                self._enqueue(Message(receiver, sender, round_key, seq, entry))

    # delivery

    def _pick(self) -> Message | None:
        if self.config.delivery_order is DeliveryOrder.RANDOM:
            if not self._ready:
                return None
            idx = self._rng.randrange(len(self._ready))
            msg = self._ready[idx]
            self._ready[idx] = self._ready[-1]
            self._ready.pop()
            return msg
        while self._rotation:
            key = self._rotation.popleft()
            q = self._queues[key]
            msg = q.popleft()
            if q:
                self._rotation.append(key)
            return msg
        return None

    def step(self) -> tuple[bool, Message] | None:
        """Deliver or drop the next deliverable message; None when idle.

        Returns (True, msg) for a delivery and (False, msg) for a drop,
        whose retransmission is already enqueued.
        """
        msg = self._pick()
        if msg is None:
            if any(self._blocked.values()):
                raise InvariantError("transport stalled on blocked messages")
            return None
        self._time += 1
        if self.config.drop_probability > 0.0 and self._rng.random() < self.config.drop_probability:
            self.dropped_count += 1
            self._log("DROP", msg)
            reader = self._readers[(msg.sender, msg.round_key)]
            retry = Message(msg.receiver, msg.sender, msg.round_key, msg.seq, reader(msg.seq))
            self._enqueue(retry)
            return False, msg
        self.delivered_count += 1
        self._log("DELIVER", msg)
        akey = (msg.receiver, msg.sender, msg.round_key, msg.seq)
        self._audit[akey] = self._audit.get(akey, 0) + 1
        if self._audit[akey] != 1:
            raise InvariantError(f"duplicate delivery {akey}")
        if self.tracker.note_delivery(msg.receiver, msg.sender, msg.round_key):
            self._release(msg.receiver, msg.round_key)
        return True, msg

    def round_complete(self, receiver, round_key) -> bool:
        return self.tracker.complete(receiver, round_key)

    def audit_exactly_once(self) -> None:
        """Raise InvariantError unless every expected message was delivered exactly once."""
        for (receiver, sender, round_key), expected in self.tracker.expected.items():
            delivered = self.tracker.delivered[(receiver, sender, round_key)]
            if delivered != expected:
                raise InvariantError(
                    f"delivery count mismatch for receiver={receiver} sender={sender} "
                    f"round={round_key}: {delivered} != {expected}"
                )
            for seq in range(expected):
                if self._audit.get((receiver, sender, round_key, seq), 0) != 1:
                    raise InvariantError(f"message {seq} from {sender} to {receiver} lost")
