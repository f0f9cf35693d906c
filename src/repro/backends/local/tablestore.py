"""Sqlite-backed SimpleDB: the local attribute-table backend.

The authoritative store is a sqlite database: one row per committed
item version (``sdb_versions``), carrying the version's packed
attribute tuple as compact JSON (``["name","value",...]``) plus its
commit and visibility timestamps.  Each write request the service
applies is one sqlite transaction (see
:mod:`repro.backends.local.transaction`).  Reads — gets,
selects, peeks — round-trip through SQL; nothing item-level survives
only in process memory.

Everything *above* the storage substrate is shared with the simulated
service by subclassing :class:`~repro.cloud.simpledb.SimpleDBService`:
the select grammar and planner, request pricing, billing, snapshot
pagination, validation limits, and the eventual-consistency policy
(the same seeded :class:`~repro.cloud.consistency.PropagationSampler`
stamps each row's ``visible_at``).  That sharing is what pins the two
backends byte-identical — the differential matrix replays the same
workload on both and compares rows, ordering, and billing bit for bit.

The in-memory secondary indexes (:class:`_DomainState`) remain derived
data, exactly as a database's indexes are: they are rebuilt from the
sqlite rows when an existing database is reopened, and every candidate
they produce is re-verified against a SQL-backed read before it can
reach an answer.
"""

from __future__ import annotations

import json
import sqlite3
from typing import List, Optional

from repro.backends.local.transaction import atomic
from repro.cloud.billing import BillingMeter
from repro.cloud.consistency import (
    ConsistencyEngine,
    ConsistencyModel,
    WriteVersion,
)
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.cloud.simpledb import (
    PackedAttributes,
    SimpleDBService,
    _attributes_size,
    _DomainState,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sdb_domains (
    name TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS sdb_versions (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    domain TEXT NOT NULL,
    item TEXT NOT NULL,
    committed_at REAL NOT NULL,
    visible_at REAL NOT NULL,
    deleted INTEGER NOT NULL DEFAULT 0,
    attrs TEXT
);
CREATE INDEX IF NOT EXISTS sdb_versions_read
    ON sdb_versions(domain, item, committed_at DESC, seq DESC);
"""


def ensure_schema(conn: sqlite3.Connection) -> None:
    conn.executescript(f"BEGIN;{_SCHEMA}COMMIT;")


def _version(
    attrs: Optional[str], committed_at: float, visible_at: float, deleted: int
) -> WriteVersion[PackedAttributes]:
    """One row as the version the service stores: the JSON array as the
    packed tuple, and a tombstone's flag as ``value=None``."""
    value = None if deleted else tuple(json.loads(attrs))
    return WriteVersion(value, committed_at, visible_at)


class SqliteHistories:
    """One domain's item histories, stored as sqlite rows.

    The service reads and writes it by item id, as it does the
    in-memory columns (``write``/``read``/``versions``); the id's name
    is ``names[ident]``, the domain's id -> name list.  ``read``
    resolves the version :func:`~repro.cloud.consistency.read_version`
    would: among rows observable at ``at`` (``visible_at <= at`` under
    EVENTUAL, ``committed_at <= at`` under STRICT), the one with the
    greatest commit time, ties broken toward the latest insertion
    (``seq``).  A row's ``deleted`` flag reads back as ``value=None``."""

    __slots__ = ("_conn", "_domain", "_names")

    def __init__(self, conn: sqlite3.Connection, domain: str, names: List[str]):
        self._conn = conn
        self._domain = domain
        self._names = names

    def write(
        self,
        ident: int,
        value: Optional[PackedAttributes],
        committed_at: float,
        visible_at: float,
    ) -> None:
        self._conn.execute(
            "INSERT INTO sdb_versions(domain, item, committed_at, visible_at,"
            " deleted, attrs) VALUES (?, ?, ?, ?, ?, ?)",
            (
                self._domain,
                self._names[ident],
                committed_at,
                visible_at,
                int(value is None),
                None if value is None else json.dumps(value, separators=(",", ":")),
            ),
        )

    def read(
        self, ident: int, at: float, model: ConsistencyModel
    ) -> Optional[PackedAttributes]:
        column = "committed_at" if model is ConsistencyModel.STRICT else "visible_at"
        row = self._conn.execute(
            f"SELECT attrs, deleted FROM sdb_versions"
            f" WHERE domain = ? AND item = ? AND {column} <= ?"
            f" ORDER BY committed_at DESC, seq DESC LIMIT 1",
            (self._domain, self._names[ident], at),
        ).fetchone()
        return None if row is None or row[1] else tuple(json.loads(row[0]))

    @staticmethod
    def attributes_size(ident: int, packed: PackedAttributes) -> int:
        return _attributes_size(packed)

    def versions(self, ident: int) -> List[WriteVersion[PackedAttributes]]:
        rows = self._conn.execute(
            "SELECT attrs, committed_at, visible_at, deleted FROM sdb_versions"
            " WHERE domain = ? AND item = ? ORDER BY committed_at, seq",
            (self._domain, self._names[ident]),
        ).fetchall()
        return [_version(*row) for row in rows]

    @staticmethod
    def memory_bytes() -> int:
        """Nothing: the versions live in sqlite rows, not the heap."""
        return 0


class LocalSimpleDBService(SimpleDBService):
    """SimpleDB over sqlite: same API, same grammar, real rows."""

    def __init__(
        self,
        scheduler: ParallelScheduler,
        profile: ServiceProfile,
        billing: BillingMeter,
        consistency: Optional[ConsistencyEngine] = None,
        use_indexes: bool = True,
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
            consistency,
            use_indexes=use_indexes,
            telemetry=telemetry,
        )
        # Reopening an existing database: resurrect its domains (and
        # rebuild their derived in-memory indexes from the stored rows).
        for (name,) in conn.execute("SELECT name FROM sdb_domains").fetchall():
            self.create_domain(name)

    def create_domain(self, domain: str) -> None:
        if domain in self._domains:
            return
        state = _DomainState()
        state.histories = SqliteHistories(self._conn, domain, state.names.by_id)
        self._domains[domain] = state
        self._conn.execute(
            "INSERT OR IGNORE INTO sdb_domains(name) VALUES (?)", (domain,)
        )
        self._rebuild_indexes(domain, state)

    def _rebuild_indexes(self, domain: str, state: _DomainState) -> None:
        """Replay the stored versions into the derived secondary indexes.

        The rebuilt index over-approximates — it records every pair any
        version ever held, and delete-driven pruning state is not
        reconstructed — which is exactly the invariant the planner
        requires (candidates are a superset; verification decides)."""
        rows = self._conn.execute(
            "SELECT item, attrs FROM sdb_versions"
            " WHERE domain = ? AND deleted = 0 ORDER BY seq",
            (domain,),
        ).fetchall()
        for item, attrs_text in rows:
            texts = iter(json.loads(attrs_text))
            state.note_pairs(item, list(zip(texts, texts)))

    # -- writes: one sqlite transaction per request ---------------------------

    def batch_put_request(self, *args, **kwargs) -> Request:
        return atomic(self._conn, super().batch_put_request(*args, **kwargs))

    def put_request(self, *args, **kwargs) -> Request:
        return atomic(self._conn, super().put_request(*args, **kwargs))

    def delete_request(self, *args, **kwargs) -> Request:
        return atomic(self._conn, super().delete_request(*args, **kwargs))

    # -- omniscient inspection ------------------------------------------------

    def stored_version_count(self, domain: str) -> int:
        """Raw row count in the sqlite store (tests: proves the data
        actually lives in the database, not in process memory)."""
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM sdb_versions WHERE domain = ?", (domain,)
        ).fetchone()
        return count
