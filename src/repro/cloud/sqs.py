"""Simulated Amazon SQS (circa January 2010).

Semantics implemented (§2.3 and §4.3.3 of the paper):

- queues identified by URL,
- ``SendMessage`` with an 8 KB body limit (the limit that forces P3 to
  chunk provenance and to spill data payloads to temporary S3 objects),
- ``ReceiveMessage`` returns up to 10 messages with a *visibility
  timeout*: a received message is hidden from other consumers until the
  timeout lapses, then redelivered (at-least-once delivery),
- ``DeleteMessage`` by receipt handle,
- best-effort ordering: approximately FIFO, with occasional seeded
  reordering,
- messages are retained for four days and then silently dropped —
  exactly the garbage-collection behaviour P3 relies on for abandoned
  transactions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.billing import BillingMeter
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.errors import InvalidRequestError, LimitExceededError, NoSuchQueueError

#: SQS message body limit (8 KB).
MESSAGE_LIMIT_BYTES = 8 * 1024

#: Messages are retained for four days, then dropped.
RETENTION_SECONDS = 4 * 24 * 3600.0

#: Maximum messages returned by one ReceiveMessage call.
RECEIVE_BATCH_LIMIT = 10

#: Default visibility timeout, seconds.
DEFAULT_VISIBILITY_TIMEOUT = 30.0


@dataclass(slots=True)
class Message:
    """A message as seen by a consumer."""

    message_id: str
    receipt_handle: str
    body: str
    sent_at: float


@dataclass(slots=True)
class _StoredMessage:
    message_id: str
    body: str
    sent_at: float
    invisible_until: float
    #: Deliveries so far; delivery ``n`` handed out ``_handle(id, n)``.
    receipt_counter: int = 0


def _handle(message_id: str, delivery: int) -> str:
    return f"{message_id}#r{delivery}"


class _Queue:
    """One in-memory queue, holding only what is still in it: a deleted
    or expired message is dropped with every receipt handle it ever had,
    so a call costs the live backlog, not the queue's history."""

    def __init__(self, name: str):
        self.name = name
        #: message id -> stored message, in send order.
        self.messages: Dict[str, _StoredMessage] = {}
        #: receipt handle -> message id; earlier handles of a redelivered
        #: message stay valid for DeleteMessage until the message goes.
        self.receipts: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.messages)

    def add(self, message_id: str, body: str, sent_at: float) -> None:
        self.messages[message_id] = _StoredMessage(message_id, body, sent_at, sent_at)

    def available(self, now: float) -> List[_StoredMessage]:
        return [m for m in self.messages.values() if m.invisible_until <= now]

    def lease(self, stored: _StoredMessage, handle: str, until: float) -> None:
        stored.invisible_until = until
        stored.receipt_counter += 1
        self.receipts[handle] = stored.message_id

    def holder(self, handle: str) -> Optional[_StoredMessage]:
        return self.messages.get(self.receipts.get(handle))

    def hide(self, stored: _StoredMessage, until: float) -> None:
        stored.invisible_until = until

    def delete(self, stored: _StoredMessage) -> None:
        del self.messages[stored.message_id]
        for delivery in range(1, stored.receipt_counter + 1):
            self.receipts.pop(_handle(stored.message_id, delivery), None)

    def expire(self, cutoff: float) -> None:
        for stored in [m for m in self.messages.values() if m.sent_at < cutoff]:
            self.delete(stored)

    def bodies(self) -> List[str]:
        return [m.body for m in self.messages.values()]


class _MemoryQueues:
    """The default queue store: every queue in process memory."""

    def __init__(self):
        self._queues: Dict[str, _Queue] = {}
        self._ids = itertools.count(1)

    def create(self, url: str, name: str) -> _Queue:
        queue = self._queues[url] = _Queue(name)
        return queue

    def get(self, url: str) -> Optional[_Queue]:
        return self._queues.get(url)

    def stored(self) -> List[Tuple[str, _Queue]]:
        return [(queue.name, queue) for queue in self._queues.values()]

    def next_id(self) -> int:
        return next(self._ids)


class SQSService:
    """SQS: every request's semantics, over a queue store.

    The store only holds data (:class:`_MemoryQueues` by default; the
    local backend passes a sqlite one).  Validation, billing, the seeded
    reordering and duplicate draws, receipt handles, the lease rule and
    retention all live here, so every store delivers alike."""

    service_name = "sqs"

    def __init__(
        self,
        scheduler: ParallelScheduler,
        profile: ServiceProfile,
        billing: BillingMeter,
        seed: int = 0,
        duplicate_delivery_rate: float = 0.0,
        telemetry=None,
        store=None,
    ):
        self._scheduler = scheduler
        self._profile = profile
        self._billing = billing
        self._rng = random.Random(seed)
        self._store = store if store is not None else _MemoryQueues()
        self._telemetry = telemetry
        #: Probability a received message is delivered twice (fault knob).
        self.duplicate_delivery_rate = duplicate_delivery_rate
        # A reopened store's queues get their gauges back.
        for name, queue in self._store.stored():
            self._gauge(name, queue)

    def create_queue(self, name: str) -> str:
        """Create a queue; returns its URL (idempotent)."""
        url = f"sqs://queues/{name}"
        if self._store.get(url) is None:
            self._gauge(name, self._store.create(url, name))
        return url

    def _gauge(self, name: str, queue) -> None:
        if self._telemetry is not None:
            # Closes over the stored queue, not the service, so the
            # telemetry hub and the service form no cycle.
            self._telemetry.metrics.gauge_fn(
                "sqs.queue_depth", lambda: len(queue), queue=name
            )

    def _queue(self, url: str):
        queue = self._store.get(url)
        if queue is None:
            raise NoSuchQueueError(f"queue {url!r} does not exist")
        return queue

    # -- request builders ----------------------------------------------------

    def send_request(self, url: str, body: str) -> Request:
        """Build a SendMessage request; resolves to the message id."""
        encoded = body.encode("utf-8")
        if len(encoded) > MESSAGE_LIMIT_BYTES:
            raise LimitExceededError(
                f"message body is {len(encoded)} bytes; SQS limit is "
                f"{MESSAGE_LIMIT_BYTES}"
            )
        if not body:
            raise InvalidRequestError("message body must be non-empty")
        queue = self._queue(url)
        size = len(encoded)

        def apply(start: float, finish: float) -> str:
            message_id = f"msg-{self._store.next_id()}"
            # Receivable only once the send has returned: the kernel
            # applies a batch when it is placed, ``finish`` seconds early.
            queue.add(message_id, body, finish)
            self._billing.record("sqs", "SendMessage", bytes_in=size)
            return message_id

        return Request(
            profile=self._profile,
            apply=apply,
            payload_bytes=size,
            label=f"sqs.Send {url}",
        )

    def receive_request(
        self,
        url: str,
        max_messages: int = RECEIVE_BATCH_LIMIT,
        visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT,
    ) -> Request:
        """Build a ReceiveMessage request; resolves to a list of
        :class:`Message` (possibly empty)."""
        if not 1 <= max_messages <= RECEIVE_BATCH_LIMIT:
            raise InvalidRequestError(
                f"max_messages must be in [1, {RECEIVE_BATCH_LIMIT}]"
            )
        queue = self._queue(url)

        def apply(start: float, finish: float) -> List[Message]:
            queue.expire(start - RETENTION_SECONDS)
            available = queue.available(start)
            # Best-effort ordering: approximately FIFO with light shuffling.
            if len(available) > 1 and self._rng.random() < 0.2:
                self._rng.shuffle(available)
            delivered: List[Message] = []

            def deliver(stored, delivery: int) -> None:
                handle = _handle(stored.message_id, delivery)
                queue.lease(stored, handle, start + visibility_timeout)
                delivered.append(
                    Message(stored.message_id, handle, stored.body, stored.sent_at)
                )

            for stored in available[:max_messages]:
                delivery = stored.receipt_counter + 1
                deliver(stored, delivery)
                if (
                    self.duplicate_delivery_rate > 0
                    and self._rng.random() < self.duplicate_delivery_rate
                    and len(delivered) < max_messages
                ):
                    # At-least-once delivery: hand out a duplicate receipt.
                    deliver(stored, delivery + 1)
            size = sum(len(m.body.encode()) for m in delivered)
            self._billing.record("sqs", "ReceiveMessage", bytes_out=size)
            return delivered

        return Request(
            profile=self._profile,
            apply=apply,
            read_only=True,
            label=f"sqs.Receive {url}",
        )

    def change_visibility_request(
        self,
        url: str,
        receipt_handle: str,
        visibility_timeout: float = 0.0,
    ) -> Request:
        """Build a ChangeMessageVisibility request: reset the message's
        invisibility window from *now*.  A timeout of ``0`` hands the
        message straight back to other consumers — how a retiring daemon
        returns an in-flight transaction to the WAL without waiting out
        the original visibility timeout.  Idempotent on stale handles;
        the receipt handle stays valid.

        The request only acts while the caller still *holds* the lease:
        the handle must be the message's most recent receipt and the
        invisibility window must still be open.  Once the lease has
        expired the message already belongs to the queue (or to whoever
        re-received it), so a late ``ChangeMessageVisibility`` — timeout
        ``0`` from a retiring daemon, or any other value — is a no-op
        rather than a clobber of the next consumer's lease."""
        if visibility_timeout < 0:
            raise InvalidRequestError(
                f"visibility_timeout must be >= 0 (got {visibility_timeout})"
            )
        queue = self._queue(url)

        def apply(start: float, finish: float) -> None:
            stored = queue.holder(receipt_handle)
            if (
                stored is not None
                and receipt_handle == _handle(stored.message_id, stored.receipt_counter)
                and stored.invisible_until > start
            ):
                queue.hide(stored, start + visibility_timeout)
            self._billing.record("sqs", "ChangeMessageVisibility")

        return Request(
            profile=self._profile,
            apply=apply,
            label=f"sqs.ChangeVisibility {url}",
        )

    def delete_request(self, url: str, receipt_handle: str) -> Request:
        """Build a DeleteMessage request (idempotent on stale handles)."""
        queue = self._queue(url)

        def apply(start: float, finish: float) -> None:
            stored = queue.holder(receipt_handle)
            if stored is not None:
                queue.delete(stored)
            self._billing.record("sqs", "DeleteMessage")

        return Request(
            profile=self._profile,
            apply=apply,
            label=f"sqs.Delete {url}",
        )

    # -- sequential conveniences ----------------------------------------------

    def send_message(self, url: str, body: str) -> str:
        return self._scheduler.execute_one(self.send_request(url, body))

    def receive_messages(
        self,
        url: str,
        max_messages: int = RECEIVE_BATCH_LIMIT,
        visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT,
    ) -> List[Message]:
        return self._scheduler.execute_one(
            self.receive_request(url, max_messages, visibility_timeout)
        )

    def delete_message(self, url: str, receipt_handle: str) -> None:
        self._scheduler.execute_one(self.delete_request(url, receipt_handle))

    def change_visibility(
        self, url: str, receipt_handle: str, visibility_timeout: float = 0.0
    ) -> None:
        self._scheduler.execute_one(
            self.change_visibility_request(url, receipt_handle, visibility_timeout)
        )

    # -- omniscient inspection (tests & daemons' bookkeeping) --------------------

    def pending_count(self, url: str, now: Optional[float] = None) -> int:
        """Number of undeleted, unexpired messages (tests/monitoring)."""
        queue = self._queue(url)
        if now is not None:
            queue.expire(now - RETENTION_SECONDS)
        return len(queue)

    def pending_bodies(self, url: str) -> List[str]:
        """Bodies of the undeleted messages, visible or leased, in send
        order (tests/monitoring)."""
        return self._queue(url).bodies()
