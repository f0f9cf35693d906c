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
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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


@dataclass
class Message:
    """A message as seen by a consumer."""

    message_id: str
    receipt_handle: str
    body: str
    sent_at: float


@dataclass
class _StoredMessage:
    message_id: str
    body: str
    sent_at: float
    invisible_until: float = 0.0
    #: Deliveries so far; delivery ``n`` hands out ``<message id>#r<n>``.
    receipt_counter: int = 0

    def handle(self, delivery: int) -> str:
        return f"{self.message_id}#r{delivery}"


@dataclass
class _Queue:
    """Only what is still in the queue: a deleted or expired message is
    dropped with every receipt handle it ever had, so a call costs the
    live backlog, not the queue's history."""

    url: str
    #: message id -> stored message, in send order.
    messages: Dict[str, _StoredMessage] = field(default_factory=dict)
    #: receipt handle -> message id; earlier handles of a redelivered
    #: message stay valid for DeleteMessage until the message goes.
    receipts: Dict[str, str] = field(default_factory=dict)

    def drop(self, message_id: Optional[str]) -> None:
        stored = self.messages.pop(message_id, None)
        if stored is not None:
            for delivery in range(1, stored.receipt_counter + 1):
                self.receipts.pop(stored.handle(delivery), None)


class SQSService:
    """In-process SQS stand-in."""

    service_name = "sqs"

    def __init__(
        self,
        scheduler: ParallelScheduler,
        profile: ServiceProfile,
        billing: BillingMeter,
        seed: int = 0,
        duplicate_delivery_rate: float = 0.0,
        telemetry=None,
    ):
        self._scheduler = scheduler
        self._profile = profile
        self._billing = billing
        self._rng = random.Random(seed)
        self._queues: Dict[str, _Queue] = {}
        self._ids = itertools.count(1)
        self._telemetry = telemetry
        #: Probability a received message is delivered twice (fault knob).
        self.duplicate_delivery_rate = duplicate_delivery_rate

    @property
    def profile(self) -> ServiceProfile:
        return self._profile

    def create_queue(self, name: str) -> str:
        """Create a queue; returns its URL (idempotent)."""
        url = f"sqs://queues/{name}"
        if url not in self._queues:
            queue = self._queues[url] = _Queue(url=url)
            if self._telemetry is not None:
                # Closes over the queue, not the service, so the telemetry
                # hub and the service form no cycle.
                self._telemetry.metrics.gauge_fn(
                    "sqs.queue_depth", lambda: len(queue.messages), queue=name
                )
        return url

    def _queue(self, url: str) -> _Queue:
        try:
            return self._queues[url]
        except KeyError:
            raise NoSuchQueueError(f"queue {url!r} does not exist") from None

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
            message_id = f"msg-{next(self._ids)}"
            # Receivable only once the send has returned: the kernel
            # applies a batch when it is placed, ``finish`` seconds early.
            queue.messages[message_id] = _StoredMessage(
                message_id=message_id,
                body=body,
                sent_at=finish,
                invisible_until=finish,
            )
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
            self._expire(queue, start)
            available = [
                m for m in queue.messages.values() if m.invisible_until <= start
            ]
            # Best-effort ordering: approximately FIFO with light shuffling.
            if len(available) > 1 and self._rng.random() < 0.2:
                self._rng.shuffle(available)
            picked = available[:max_messages]
            delivered: List[Message] = []
            for stored in picked:
                stored.invisible_until = start + visibility_timeout
                stored.receipt_counter += 1
                handle = stored.handle(stored.receipt_counter)
                queue.receipts[handle] = stored.message_id
                delivered.append(
                    Message(stored.message_id, handle, stored.body, stored.sent_at)
                )
                if (
                    self.duplicate_delivery_rate > 0
                    and self._rng.random() < self.duplicate_delivery_rate
                    and len(delivered) < max_messages
                ):
                    # At-least-once delivery: hand out a duplicate receipt.
                    stored.receipt_counter += 1
                    dup_handle = stored.handle(stored.receipt_counter)
                    queue.receipts[dup_handle] = stored.message_id
                    delivered.append(
                        Message(
                            stored.message_id, dup_handle, stored.body, stored.sent_at
                        )
                    )
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
            stored = queue.messages.get(queue.receipts.get(receipt_handle))
            if (
                stored is not None
                and receipt_handle == stored.handle(stored.receipt_counter)
                and stored.invisible_until > start
            ):
                stored.invisible_until = start + visibility_timeout
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
            queue.drop(queue.receipts.get(receipt_handle))
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

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _expire(queue: _Queue, now: float) -> None:
        cutoff = now - RETENTION_SECONDS
        expired = [
            m.message_id for m in queue.messages.values() if m.sent_at < cutoff
        ]
        for message_id in expired:
            queue.drop(message_id)

    # -- omniscient inspection (tests & daemons' bookkeeping) --------------------

    def pending_count(self, url: str, now: Optional[float] = None) -> int:
        """Number of undeleted, unexpired messages (tests/monitoring)."""
        queue = self._queue(url)
        if now is not None:
            self._expire(queue, now)
        return len(queue.messages)

    def pending_bodies(self, url: str) -> List[str]:
        """Bodies of the undeleted messages, visible or leased, in send
        order (tests/monitoring)."""
        return [m.body for m in self._queue(url).messages.values()]
