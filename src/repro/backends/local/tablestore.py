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
from typing import Iterator, List, Optional, Tuple

from repro.backends.local.transaction import atomic
from repro.cloud.billing import BillingMeter
from repro.cloud.consistency import (
    ConsistencyEngine,
    ConsistencyModel,
    WriteVersion,
)
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.cloud.simpledb import PackedAttributes, SimpleDBService, _DomainState

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


def _decode_attrs(text: Optional[str]) -> Optional[PackedAttributes]:
    """A row's JSON array, as the packed tuple the service stores."""
    if text is None:
        return None
    return tuple(json.loads(text))


class SqliteRegister:
    """One item's version history, stored as sqlite rows.

    Implements the :class:`~repro.cloud.consistency.VersionedRegister`
    interface the service reads and writes through.  ``read`` resolves
    the same version the in-memory register would: among rows observable
    at ``at`` (``visible_at <= at`` under EVENTUAL, ``committed_at <=
    at`` under STRICT), the one with the greatest commit time, ties
    broken toward the latest insertion (``seq``)."""

    __slots__ = ("_conn", "_domain", "_item")

    def __init__(self, conn: sqlite3.Connection, domain: str, item: str):
        self._conn = conn
        self._domain = domain
        self._item = item

    # -- writes ---------------------------------------------------------------

    def write(
        self, value: PackedAttributes, committed_at: float, visible_at: float
    ) -> None:
        attrs = json.dumps(value, separators=(",", ":"))
        self._conn.execute(
            "INSERT INTO sdb_versions(domain, item, committed_at, visible_at,"
            " deleted, attrs) VALUES (?, ?, ?, ?, 0, ?)",
            (self._domain, self._item, committed_at, visible_at, attrs),
        )

    def delete(self, committed_at: float, visible_at: float) -> None:
        self._conn.execute(
            "INSERT INTO sdb_versions(domain, item, committed_at, visible_at,"
            " deleted, attrs) VALUES (?, ?, ?, ?, 1, NULL)",
            (self._domain, self._item, committed_at, visible_at),
        )

    # -- reads ----------------------------------------------------------------

    def _best_row(self, column: str, at: float):
        return self._conn.execute(
            f"SELECT attrs, committed_at, visible_at, deleted FROM sdb_versions"
            f" WHERE domain = ? AND item = ? AND {column} <= ?"
            f" ORDER BY committed_at DESC, seq DESC LIMIT 1",
            (self._domain, self._item, at),
        ).fetchone()

    def read(
        self, at: float, model: ConsistencyModel
    ) -> Optional[WriteVersion[PackedAttributes]]:
        column = "committed_at" if model is ConsistencyModel.STRICT else "visible_at"
        row = self._best_row(column, at)
        if row is None:
            return None
        attrs, committed_at, visible_at, deleted = row
        return WriteVersion(
            value=_decode_attrs(attrs),
            committed_at=committed_at,
            visible_at=visible_at,
            deleted=bool(deleted),
        )

    def read_latest_committed(
        self, at: float
    ) -> Optional[WriteVersion[PackedAttributes]]:
        return self.read(at, ConsistencyModel.STRICT)

    def history(self) -> List[WriteVersion[PackedAttributes]]:
        rows = self._conn.execute(
            "SELECT attrs, committed_at, visible_at, deleted FROM sdb_versions"
            " WHERE domain = ? AND item = ? ORDER BY committed_at, seq",
            (self._domain, self._item),
        ).fetchall()
        return [
            WriteVersion(_decode_attrs(a), c, v, bool(d)) for a, c, v, d in rows
        ]

    def ever_written(self) -> bool:
        return (
            self._conn.execute(
                "SELECT 1 FROM sdb_versions WHERE domain = ? AND item = ? LIMIT 1",
                (self._domain, self._item),
            ).fetchone()
            is not None
        )


class SqliteRegistry:
    """The dict-of-registers view one domain's service code sees,
    backed by the shared sqlite connection."""

    __slots__ = ("_conn", "_domain")

    def __init__(self, conn: sqlite3.Connection, domain: str):
        self._conn = conn
        self._domain = domain

    def _exists(self, item: str) -> bool:
        return (
            self._conn.execute(
                "SELECT 1 FROM sdb_versions WHERE domain = ? AND item = ? LIMIT 1",
                (self._domain, item),
            ).fetchone()
            is not None
        )

    def __contains__(self, item: str) -> bool:
        return self._exists(item)

    def get(self, item: str, default=None):
        if not self._exists(item):
            return default
        return SqliteRegister(self._conn, self._domain, item)

    def setdefault(self, item: str, default=None) -> SqliteRegister:
        # Registers materialize lazily: no row is written until the
        # service commits a version, mirroring the dict semantics where
        # an empty register is indistinguishable from none.
        del default
        return SqliteRegister(self._conn, self._domain, item)

    def items(self) -> Iterator[Tuple[str, SqliteRegister]]:
        rows = self._conn.execute(
            "SELECT item FROM sdb_versions WHERE domain = ?"
            " GROUP BY item ORDER BY MIN(seq)",
            (self._domain,),
        ).fetchall()
        for (item,) in rows:
            yield item, SqliteRegister(self._conn, self._domain, item)


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
        state.registry = SqliteRegistry(self._conn, domain)
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
        seen = set()
        rows = self._conn.execute(
            "SELECT item, attrs FROM sdb_versions"
            " WHERE domain = ? AND deleted = 0 ORDER BY seq",
            (domain,),
        ).fetchall()
        for item, attrs_text in rows:
            if item not in seen:
                seen.add(item)
                state.add_name(item)
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
