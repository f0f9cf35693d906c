"""Sqlite-backed SQS: the local durable-queue backend.

Messages, receipt handles, and the message-id counter all live in
sqlite, so a queue survives process restart — the durability P3's WAL
actually needs from its provider.  The delivery *semantics* are the
simulated service's, reproduced draw for draw: the same seeded RNG
decides best-effort reordering and duplicate delivery, receipt handles
follow the same ``msg-<n>#r<k>`` scheme, visibility timeouts and the
four-day retention window use the same virtual-clock timestamps, and
``ChangeMessageVisibility`` applies the same expired-lease no-op rule.
The differential matrix holds the two backends to byte-identical
deliveries under identical workloads.

Every request is one sqlite transaction: a send's counter bump and
insert, a receive's leases and receipts, land together or not at all.
"""

from __future__ import annotations

import sqlite3
from typing import List, Optional

from repro.backends.local.transaction import atomic
from repro.cloud.billing import BillingMeter
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.cloud.sqs import (
    DEFAULT_VISIBILITY_TIMEOUT,
    MESSAGE_LIMIT_BYTES,
    RECEIVE_BATCH_LIMIT,
    RETENTION_SECONDS,
    Message,
    SQSService,
)
from repro.errors import InvalidRequestError, LimitExceededError, NoSuchQueueError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sqs_queues (
    url TEXT PRIMARY KEY,
    name TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sqs_messages (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    queue TEXT NOT NULL,
    message_id TEXT NOT NULL,
    body TEXT NOT NULL,
    sent_at REAL NOT NULL,
    invisible_until REAL NOT NULL DEFAULT 0,
    deleted INTEGER NOT NULL DEFAULT 0,
    receipt_counter INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS sqs_messages_receive
    ON sqs_messages(queue, deleted, invisible_until, seq);
CREATE TABLE IF NOT EXISTS sqs_receipts (
    handle TEXT PRIMARY KEY,
    queue TEXT NOT NULL,
    message_id TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sqs_counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""


def ensure_schema(conn: sqlite3.Connection) -> None:
    conn.executescript(f"BEGIN;{_SCHEMA}COMMIT;")


def _live_count(conn: sqlite3.Connection, url: str) -> int:
    (count,) = conn.execute(
        "SELECT COUNT(*) FROM sqs_messages WHERE queue = ? AND deleted = 0",
        (url,),
    ).fetchone()
    return count


class LocalSQSService(SQSService):
    """SQS over sqlite: same delivery semantics, durable rows."""

    def __init__(
        self,
        scheduler: ParallelScheduler,
        profile: ServiceProfile,
        billing: BillingMeter,
        seed: int = 0,
        duplicate_delivery_rate: float = 0.0,
        telemetry=None,
        *,
        conn: sqlite3.Connection,
    ):
        self._conn = conn
        ensure_schema(conn)
        super().__init__(
            scheduler,
            profile,
            billing,
            seed=seed,
            duplicate_delivery_rate=duplicate_delivery_rate,
            telemetry=telemetry,
        )
        # Reopening an existing database: re-register the stored queues'
        # telemetry gauges (the rows themselves are already durable).
        for (url, name) in conn.execute(
            "SELECT url, name FROM sqs_queues"
        ).fetchall():
            self._register_gauge(url, name)

    # -- queue lifecycle -------------------------------------------------------

    def _register_gauge(self, url: str, name: str) -> None:
        if self._telemetry is not None:
            self._telemetry.metrics.gauge_fn(
                "sqs.queue_depth",
                lambda conn=self._conn, url=url: _live_count(conn, url),
                queue=name,
            )

    def create_queue(self, name: str) -> str:
        url = f"sqs://queues/{name}"
        existing = self._conn.execute(
            "SELECT 1 FROM sqs_queues WHERE url = ?", (url,)
        ).fetchone()
        if existing is None:
            self._conn.execute(
                "INSERT INTO sqs_queues(url, name) VALUES (?, ?)", (url, name)
            )
            self._register_gauge(url, name)
        return url

    def _require_queue(self, url: str) -> None:
        row = self._conn.execute(
            "SELECT 1 FROM sqs_queues WHERE url = ?", (url,)
        ).fetchone()
        if row is None:
            raise NoSuchQueueError(f"queue {url!r} does not exist")

    def _next_message_id(self) -> str:
        # The counter is global across queues (like the simulator's
        # itertools.count) and durable across restarts.
        self._conn.execute(
            "INSERT INTO sqs_counters(name, value) VALUES ('message_id', 0)"
            " ON CONFLICT(name) DO NOTHING"
        )
        self._conn.execute(
            "UPDATE sqs_counters SET value = value + 1 WHERE name = 'message_id'"
        )
        (value,) = self._conn.execute(
            "SELECT value FROM sqs_counters WHERE name = 'message_id'"
        ).fetchone()
        return f"msg-{value}"

    # -- request builders ------------------------------------------------------

    def send_request(self, url: str, body: str) -> Request:
        encoded = body.encode("utf-8")
        if len(encoded) > MESSAGE_LIMIT_BYTES:
            raise LimitExceededError(
                f"message body is {len(encoded)} bytes; SQS limit is "
                f"{MESSAGE_LIMIT_BYTES}"
            )
        if not body:
            raise InvalidRequestError("message body must be non-empty")
        self._require_queue(url)
        size = len(encoded)

        def apply(start: float, finish: float) -> str:
            message_id = self._next_message_id()
            self._conn.execute(
                "INSERT INTO sqs_messages"
                "(queue, message_id, body, sent_at, invisible_until)"
                " VALUES (?, ?, ?, ?, ?)",
                (url, message_id, body, finish, finish),
            )
            self._billing.record("sqs", "SendMessage", bytes_in=size)
            return message_id

        return atomic(self._conn, Request(
            profile=self._profile,
            apply=apply,
            payload_bytes=size,
            label=f"sqs.Send {url}",
        ))

    def receive_request(
        self,
        url: str,
        max_messages: int = RECEIVE_BATCH_LIMIT,
        visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT,
    ) -> Request:
        if not 1 <= max_messages <= RECEIVE_BATCH_LIMIT:
            raise InvalidRequestError(
                f"max_messages must be in [1, {RECEIVE_BATCH_LIMIT}]"
            )
        self._require_queue(url)

        def apply(start: float, finish: float) -> List[Message]:
            self._expire_stored(url, start)
            available = self._conn.execute(
                "SELECT seq, message_id, body, sent_at, receipt_counter"
                " FROM sqs_messages"
                " WHERE queue = ? AND deleted = 0 AND invisible_until <= ?"
                " ORDER BY seq",
                (url, start),
            ).fetchall()
            # Identical RNG consumption to the simulated service: one
            # shuffle guard draw, then per-delivery duplicate draws.
            if len(available) > 1 and self._rng.random() < 0.2:
                self._rng.shuffle(available)
            picked = available[:max_messages]
            delivered: List[Message] = []
            for seq, message_id, body, sent_at, receipt_counter in picked:

                def lease(counter: int) -> str:
                    handle = f"{message_id}#r{counter}"
                    self._conn.execute(
                        "UPDATE sqs_messages SET invisible_until = ?,"
                        " receipt_counter = ? WHERE seq = ?",
                        (start + visibility_timeout, counter, seq),
                    )
                    self._conn.execute(
                        "INSERT OR REPLACE INTO sqs_receipts"
                        "(handle, queue, message_id) VALUES (?, ?, ?)",
                        (handle, url, message_id),
                    )
                    return handle

                receipt_counter += 1
                handle = lease(receipt_counter)
                delivered.append(Message(message_id, handle, body, sent_at))
                if (
                    self.duplicate_delivery_rate > 0
                    and self._rng.random() < self.duplicate_delivery_rate
                    and len(delivered) < max_messages
                ):
                    receipt_counter += 1
                    dup_handle = lease(receipt_counter)
                    delivered.append(Message(message_id, dup_handle, body, sent_at))
            size = sum(len(m.body.encode()) for m in delivered)
            self._billing.record("sqs", "ReceiveMessage", bytes_out=size)
            return delivered

        return atomic(self._conn, Request(
            profile=self._profile,
            apply=apply,
            read_only=True,
            label=f"sqs.Receive {url}",
        ))

    def change_visibility_request(
        self,
        url: str,
        receipt_handle: str,
        visibility_timeout: float = 0.0,
    ) -> Request:
        """See :meth:`SQSService.change_visibility_request` — same
        semantics, including the expired-lease no-op rule: the handle
        must be the message's latest receipt and the lease still open."""
        if visibility_timeout < 0:
            raise InvalidRequestError(
                f"visibility_timeout must be >= 0 (got {visibility_timeout})"
            )
        self._require_queue(url)

        def apply(start: float, finish: float) -> None:
            row = self._conn.execute(
                "SELECT message_id FROM sqs_receipts WHERE handle = ? AND queue = ?",
                (receipt_handle, url),
            ).fetchone()
            if row is not None:
                (message_id,) = row
                stored = self._conn.execute(
                    "SELECT seq, receipt_counter, invisible_until FROM sqs_messages"
                    " WHERE queue = ? AND message_id = ? AND deleted = 0",
                    (url, message_id),
                ).fetchone()
                if stored is not None:
                    seq, receipt_counter, invisible_until = stored
                    latest = f"{message_id}#r{receipt_counter}"
                    if receipt_handle == latest and invisible_until > start:
                        self._conn.execute(
                            "UPDATE sqs_messages SET invisible_until = ?"
                            " WHERE seq = ?",
                            (start + visibility_timeout, seq),
                        )
            self._billing.record("sqs", "ChangeMessageVisibility")

        return atomic(self._conn, Request(
            profile=self._profile,
            apply=apply,
            label=f"sqs.ChangeVisibility {url}",
        ))

    def delete_request(self, url: str, receipt_handle: str) -> Request:
        self._require_queue(url)

        def apply(start: float, finish: float) -> None:
            row = self._conn.execute(
                "SELECT message_id FROM sqs_receipts WHERE handle = ? AND queue = ?",
                (receipt_handle, url),
            ).fetchone()
            if row is not None:
                (message_id,) = row
                self._conn.execute(
                    "DELETE FROM sqs_receipts WHERE handle = ?", (receipt_handle,)
                )
                self._conn.execute(
                    "UPDATE sqs_messages SET deleted = 1"
                    " WHERE queue = ? AND message_id = ?",
                    (url, message_id),
                )
            self._billing.record("sqs", "DeleteMessage")

        return atomic(self._conn, Request(
            profile=self._profile,
            apply=apply,
            label=f"sqs.Delete {url}",
        ))

    # -- internals -------------------------------------------------------------

    def _expire_stored(self, url: str, now: float) -> None:
        self._conn.execute(
            "UPDATE sqs_messages SET deleted = 1"
            " WHERE queue = ? AND deleted = 0 AND sent_at < ?",
            (url, now - RETENTION_SECONDS),
        )

    # -- omniscient inspection -------------------------------------------------

    def pending_count(self, url: str, now: Optional[float] = None) -> int:
        self._require_queue(url)
        if now is not None:
            self._expire_stored(url, now)
        return _live_count(self._conn, url)

    def pending_bodies(self, url: str) -> List[str]:
        self._require_queue(url)
        rows = self._conn.execute(
            "SELECT body FROM sqs_messages WHERE queue = ? AND deleted = 0"
            " ORDER BY seq",
            (url,),
        ).fetchall()
        return [body for (body,) in rows]

    def stored_message_count(self, url: str) -> int:
        """Raw row count including tombstones (tests: proves the queue
        actually lives in sqlite)."""
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM sqs_messages WHERE queue = ?", (url,)
        ).fetchone()
        return count
