"""Simulated exactly-once broadcast with loss, retransmission, and
round-completion detection.

Senders broadcast the entries of a static table. Each enqueued message is
eventually delivered exactly once: a drop reschedules a retransmission
that re-reads the same slot from the static source table rather than
buffering the payload. Registration gives each (receiver, sender, round)
one byte per message, set on delivery; a delivery whose byte is already
set is a duplicate, and a byte still unset at audit time is a loss. A
countdown per (receiver, round) of peers yet to register plus messages yet
to arrive reaches 0 exactly when the round is complete.

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
returns None once nothing is deliverable. A delivery that completes its
receiver's round also adds 1 to rounds_completed, so a caller learns of
each completion from the step that caused it, without asking
round_complete after every delivery.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
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


@dataclass(slots=True)
class Message:
    """One queued copy of entry seq of sender's round_key broadcast.

    Not frozen: a frozen dataclass's __init__ sets each field through
    object.__setattr__, and a Message is built on every enqueue and every
    retransmission. Nothing changes a Message once it is queued.
    """

    receiver: int
    sender: int
    round_key: object
    seq: int
    entry: FlowEntry


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
        # one byte per registered message of (receiver, sender, round), set on delivery
        self._seen: dict[tuple, bytearray] = {}
        # per (receiver, round): peers yet to register plus messages yet to
        # arrive; neither term goes negative, so 0 means the round is complete
        self._left: dict[tuple, int] = {}
        self._readers: dict[tuple, object] = {}
        self._requires: dict[object, object] = {}
        self._time = 0
        # deliverable messages
        self._ready: list[Message] = []
        self._queues: dict[tuple, deque] = {}
        self._rotation: deque = deque()
        # messages waiting on (receiver, prerequisite round)
        self._blocked: dict[tuple, list[Message]] = {}

    # enqueue plumbing

    def _log(self, kind: str, msg: Message) -> None:
        self.events.append(
            f"{self._time},{kind},{msg.round_key},{msg.sender},{msg.receiver},"
            f"{msg.entry.id},{msg.entry.count}"
        )

    def _enqueue(self, msg: Message) -> None:
        self.enqueued_count += 1
        if self.record_events:
            self._log("ENQ", msg)
        requires = self._requires.get(msg.round_key)
        if requires is not None and self._left.get((msg.receiver, requires), self._peers):
            self._blocked.setdefault((msg.receiver, requires), []).append(msg)
            return
        self._make_ready(msg)

    def _make_ready(self, msg: Message) -> None:
        if self._random_order:
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
        if sender not in self.participants:
            raise InvariantError(f"sender {sender} is not a participant")
        self._readers[(sender, round_key)] = reader
        if requires is not None:
            prev = self._requires.setdefault(round_key, requires)
            if prev != requires:
                raise InvariantError(f"round {round_key} requires {prev}, not {requires}")
        receivers = [p for p in self.participants if p != sender]
        for receiver in receivers:
            key = (receiver, sender, round_key)
            if key in self._seen:
                raise InvariantError(f"duplicate registration {key}")
            self._seen[key] = bytearray(count)
            rk = (receiver, round_key)
            self._left[rk] = self._left.get(rk, self._peers) - 1 + count
        for seq in range(count):
            entry = reader(seq)
            for receiver in receivers:
                self._enqueue(Message(receiver, sender, round_key, seq, entry))

    # delivery

    def _pick(self) -> Message | None:
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
            msg = ready[idx]
            ready[idx] = ready[-1]
            ready.pop()
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
        if self._drop and self._rng.random() < self._drop:
            self.dropped_count += 1
            if self.record_events:
                self._log("DROP", msg)
            reader = self._readers[(msg.sender, msg.round_key)]
            retry = Message(msg.receiver, msg.sender, msg.round_key, msg.seq, reader(msg.seq))
            self._enqueue(retry)
            return False, msg
        self.delivered_count += 1
        if self.record_events:
            self._log("DELIVER", msg)
        seen = self._seen[(msg.receiver, msg.sender, msg.round_key)]
        if seen[msg.seq]:
            raise InvariantError(
                f"duplicate delivery of message {msg.seq} from {msg.sender} to {msg.receiver} "
                f"in round {msg.round_key}"
            )
        seen[msg.seq] = 1
        rk = (msg.receiver, msg.round_key)
        left = self._left[rk] - 1
        self._left[rk] = left
        if not left:
            self.rounds_completed += 1
            self._release(msg.receiver, msg.round_key)
        return True, msg

    def round_complete(self, receiver, round_key) -> bool:
        return self._left.get((receiver, round_key), self._peers) == 0

    def audit_exactly_once(self) -> None:
        """Raise InvariantError unless every registered message was delivered exactly once."""
        for (receiver, sender, _), seen in self._seen.items():
            if 0 in seen:
                raise InvariantError(f"message {seen.index(0)} from {sender} to {receiver} lost")
        registered = sum(map(len, self._seen.values()))
        if self.delivered_count != registered:
            raise InvariantError(f"{self.delivered_count} deliveries for {registered} registered messages")
