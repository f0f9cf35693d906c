"""Sqlite-backed SQS: the local durable-queue backend.

Messages, receipt handles, and the message-id counter all live in
sqlite, so a queue survives process restart — the durability P3's WAL
actually needs from its provider.  :class:`SqliteQueues` is only a
store: one SQL statement per operation (two for a lease and for the id
counter), no semantics.  Every rule —
validation, billing, the seeded reordering and duplicate draws, receipt
handles, the expired-lease no-op and retention — is
:class:`~repro.cloud.sqs.SQSService`'s own code, run over this store
instead of the in-memory one, so both backends deliver alike by
construction.

The tables are created with the first queue: an account that never
queues (a gateway or HTTP deployment) leaves ``queue.sqlite`` empty.
Every request is one sqlite transaction: a send's counter bump and
insert, a receive's leases and receipts, land together or not at all.
A deleted or expired message is a tombstone (``deleted = 1``); its
receipt rows stay, and match nothing once the message is gone.
"""

from __future__ import annotations

import sqlite3
from typing import List, NamedTuple, Optional, Tuple

from repro.backends.local.transaction import atomic
from repro.cloud.billing import BillingMeter
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.cloud.sqs import SQSService

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


class _Row(NamedTuple):
    """A live message as read; ``seq`` names its row for the writes."""

    seq: int
    message_id: str
    body: str
    sent_at: float
    invisible_until: float
    receipt_counter: int


_COLUMNS = ", ".join(_Row._fields)


class SqliteQueue:
    """One queue's live messages: the rows of ``sqs_messages`` with its
    url and ``deleted = 0``."""

    __slots__ = ("_conn", "_url")

    def __init__(self, conn: sqlite3.Connection, url: str):
        self._conn = conn
        self._url = url

    def __len__(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM sqs_messages WHERE queue = ? AND deleted = 0",
            (self._url,),
        ).fetchone()
        return count

    def add(self, message_id: str, body: str, sent_at: float) -> None:
        self._conn.execute(
            "INSERT INTO sqs_messages"
            "(queue, message_id, body, sent_at, invisible_until)"
            " VALUES (?, ?, ?, ?, ?)",
            (self._url, message_id, body, sent_at, sent_at),
        )

    def available(self, now: float) -> List[_Row]:
        rows = self._conn.execute(
            f"SELECT {_COLUMNS} FROM sqs_messages"
            " WHERE queue = ? AND deleted = 0 AND invisible_until <= ?"
            " ORDER BY seq",
            (self._url, now),
        ).fetchall()
        return [_Row(*row) for row in rows]

    def lease(self, row: _Row, handle: str, until: float) -> None:
        self._conn.execute(
            "UPDATE sqs_messages SET invisible_until = ?,"
            " receipt_counter = receipt_counter + 1 WHERE seq = ?",
            (until, row.seq),
        )
        self._conn.execute(
            "INSERT OR REPLACE INTO sqs_receipts(handle, queue, message_id)"
            " VALUES (?, ?, ?)",
            (handle, self._url, row.message_id),
        )

    def holder(self, handle: str) -> Optional[_Row]:
        row = self._conn.execute(
            f"SELECT {_COLUMNS} FROM sqs_messages"
            " WHERE queue = ? AND deleted = 0 AND message_id = ("
            "SELECT message_id FROM sqs_receipts WHERE handle = ? AND queue = ?)",
            (self._url, handle, self._url),
        ).fetchone()
        return None if row is None else _Row(*row)

    def hide(self, row: _Row, until: float) -> None:
        self._conn.execute(
            "UPDATE sqs_messages SET invisible_until = ? WHERE seq = ?",
            (until, row.seq),
        )

    def delete(self, row: _Row) -> None:
        self._conn.execute(
            "UPDATE sqs_messages SET deleted = 1 WHERE seq = ?", (row.seq,)
        )

    def expire(self, cutoff: float) -> None:
        self._conn.execute(
            "UPDATE sqs_messages SET deleted = 1"
            " WHERE queue = ? AND deleted = 0 AND sent_at < ?",
            (self._url, cutoff),
        )

    def bodies(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT body FROM sqs_messages WHERE queue = ? AND deleted = 0"
            " ORDER BY seq",
            (self._url,),
        ).fetchall()
        return [body for (body,) in rows]


class SqliteQueues:
    """The queue store over one sqlite connection.  Its tables are
    created with the first queue, so a store that never queues leaves
    its database empty."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn
        self._created = (
            conn.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'sqs_queues'"
            ).fetchone()
            is not None
        )

    def create(self, url: str, name: str) -> SqliteQueue:
        if not self._created:
            self._conn.executescript(f"BEGIN;{_SCHEMA}COMMIT;")
            self._created = True
        self._conn.execute(
            "INSERT INTO sqs_queues(url, name) VALUES (?, ?)", (url, name)
        )
        return SqliteQueue(self._conn, url)

    def get(self, url: str) -> Optional[SqliteQueue]:
        if not self._created:
            return None
        row = self._conn.execute(
            "SELECT 1 FROM sqs_queues WHERE url = ?", (url,)
        ).fetchone()
        return None if row is None else SqliteQueue(self._conn, url)

    def stored(self) -> List[Tuple[str, SqliteQueue]]:
        if not self._created:
            return []
        rows = self._conn.execute("SELECT url, name FROM sqs_queues").fetchall()
        return [(name, SqliteQueue(self._conn, url)) for url, name in rows]

    def next_id(self) -> int:
        # Global across queues and durable across restarts.
        self._conn.execute(
            "INSERT INTO sqs_counters(name, value) VALUES ('message_id', 1)"
            " ON CONFLICT(name) DO UPDATE SET value = value + 1"
        )
        (value,) = self._conn.execute(
            "SELECT value FROM sqs_counters WHERE name = 'message_id'"
        ).fetchone()
        return value


class LocalSQSService(SQSService):
    """SQS over sqlite: the simulated service's code, durable rows."""

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
        super().__init__(
            scheduler,
            profile,
            billing,
            seed=seed,
            duplicate_delivery_rate=duplicate_delivery_rate,
            telemetry=telemetry,
            store=SqliteQueues(conn),
        )

    def send_request(self, *args, **kwargs) -> Request:
        return atomic(self._conn, super().send_request(*args, **kwargs))

    def receive_request(self, *args, **kwargs) -> Request:
        return atomic(self._conn, super().receive_request(*args, **kwargs))

    def change_visibility_request(self, *args, **kwargs) -> Request:
        return atomic(
            self._conn, super().change_visibility_request(*args, **kwargs)
        )

    def delete_request(self, *args, **kwargs) -> Request:
        return atomic(self._conn, super().delete_request(*args, **kwargs))

    def stored_message_count(self, url: str) -> int:
        """Raw row count including tombstones (tests: proves the queue
        actually lives in sqlite)."""
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM sqs_messages WHERE queue = ?", (url,)
        ).fetchone()
        return count
