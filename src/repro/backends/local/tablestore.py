"""Sqlite-backed SimpleDB: the local attribute-table backend.

The authoritative store is a sqlite database: one row per committed
item version (``sdb_versions``), carrying the version's packed
attribute tuple plus its commit and visibility timestamps.  A row
names each thing that repeats across rows once, by an integer: the
domain as its ``sdb_domains`` id, and each attribute name as its id in
the domain's dictionary (``sdb_attribute_names``), so the tuple
``("type", "file", "name", "a")`` is stored as the compact JSON
``[0,"file",1,"a"]``.  A name enters the dictionary in the transaction
that writes its first row.  Each write request the service applies is
one sqlite transaction (see :mod:`repro.backends.local.transaction`).
Reads — gets, selects, peeks — round-trip through SQL; nothing
item-level survives only in process memory.

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
from typing import Dict, Iterator, List, Optional, Tuple

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
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS sdb_attribute_names (
    domain INTEGER NOT NULL,
    id INTEGER NOT NULL,
    name TEXT NOT NULL,
    PRIMARY KEY (domain, id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS sdb_versions (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    domain INTEGER NOT NULL,
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


class SqliteHistories:
    """One domain's item histories, stored as sqlite rows.

    The service reads and writes it by item id, as it does the
    in-memory columns (``write``/``read``/``versions``); the id's name
    is ``items[ident]``, the domain's id -> name list.  ``read``
    resolves the version :func:`~repro.cloud.consistency.read_version`
    would: among rows observable at ``at`` (``visible_at <= at`` under
    EVENTUAL, ``committed_at <= at`` under STRICT), the one with the
    greatest commit time, ties broken toward the latest insertion
    (``seq``).  A row's ``deleted`` flag reads back as ``value=None``.

    It also holds the domain's attribute-name dictionary: ``_codes``
    (name -> id) and ``_attributes`` (id -> name), loaded from
    ``sdb_attribute_names`` and grown by ``write``.  A request that
    rolls back takes its new names out of sqlite, so the service calls
    :meth:`forget_names` to take them out of memory too."""

    __slots__ = ("_conn", "_domain", "_items", "_codes", "_attributes")

    def __init__(self, conn: sqlite3.Connection, domain: int, items: List[str]):
        self._conn = conn
        self._domain = domain
        self._items = items
        self._attributes: List[str] = [
            name
            for (name,) in conn.execute(
                "SELECT name FROM sdb_attribute_names WHERE domain = ? ORDER BY id",
                (domain,),
            )
        ]
        self._codes: Dict[str, int] = {
            name: code for code, name in enumerate(self._attributes)
        }

    # -- the attribute-name dictionary ---------------------------------------

    def _code(self, name: str) -> int:
        """``name``'s id, entering it in the dictionary if it is new."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._attributes)
            self._attributes.append(name)
            self._conn.execute(
                "INSERT INTO sdb_attribute_names(domain, id, name) VALUES (?, ?, ?)",
                (self._domain, code, name),
            )
        return code

    def known_names(self) -> int:
        """How many names the dictionary holds: a mark for
        :meth:`forget_names`."""
        return len(self._attributes)

    def forget_names(self, known: int) -> None:
        """Drop every name entered since :meth:`known_names` read ``known``."""
        for name in self._attributes[known:]:
            del self._codes[name]
        del self._attributes[known:]

    def _encode(self, packed: PackedAttributes) -> str:
        coded = list(packed)
        coded[::2] = map(self._code, packed[::2])
        return json.dumps(coded, separators=(",", ":"))

    def _decode(self, text: str) -> PackedAttributes:
        coded = json.loads(text)
        coded[::2] = map(self._attributes.__getitem__, coded[::2])
        return tuple(coded)

    # -- versions -------------------------------------------------------------

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
                self._items[ident],
                committed_at,
                visible_at,
                int(value is None),
                None if value is None else self._encode(value),
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
            (self._domain, self._items[ident], at),
        ).fetchone()
        return None if row is None or row[1] else self._decode(row[0])

    @staticmethod
    def attributes_size(ident: int, packed: PackedAttributes) -> int:
        return _attributes_size(packed)

    def versions(self, ident: int) -> List[WriteVersion[PackedAttributes]]:
        rows = self._conn.execute(
            "SELECT attrs, committed_at, visible_at, deleted FROM sdb_versions"
            " WHERE domain = ? AND item = ? ORDER BY committed_at, seq",
            (self._domain, self._items[ident]),
        ).fetchall()
        return [
            WriteVersion(
                None if deleted else self._decode(attrs), committed_at, visible_at
            )
            for attrs, committed_at, visible_at, deleted in rows
        ]

    def stored_pairs(self) -> Iterator[Tuple[str, List[Tuple[str, str]]]]:
        """Every live row's item name and pairs, in insertion order."""
        rows = self._conn.execute(
            "SELECT item, attrs FROM sdb_versions"
            " WHERE domain = ? AND deleted = 0 ORDER BY seq",
            (self._domain,),
        )
        for item, attrs in rows:
            texts = iter(self._decode(attrs))
            yield item, list(zip(texts, texts))

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
        for domain_id, name in conn.execute(
            "SELECT id, name FROM sdb_domains ORDER BY id"
        ).fetchall():
            self._rebuild_indexes(self._open_domain(name, domain_id))

    def create_domain(self, domain: str) -> None:
        if domain not in self._domains:
            cursor = self._conn.execute(
                "INSERT INTO sdb_domains(name) VALUES (?)", (domain,)
            )
            self._open_domain(domain, cursor.lastrowid)

    def _open_domain(self, domain: str, domain_id: int) -> _DomainState:
        state = _DomainState()
        state.histories = SqliteHistories(self._conn, domain_id, state.names.by_id)
        self._domains[domain] = state
        return state

    @staticmethod
    def _rebuild_indexes(state: _DomainState) -> None:
        """Replay the stored versions into the derived secondary indexes.

        The rebuilt index over-approximates — it records every pair any
        version ever held, and delete-driven pruning state is not
        reconstructed — which is exactly the invariant the planner
        requires (candidates are a superset; verification decides)."""
        for item, pairs in state.histories.stored_pairs():
            state.note_pairs(item, pairs)

    # -- writes: one sqlite transaction per request ---------------------------

    def _atomic(self, domain: str, request: Request) -> Request:
        """``request`` as one sqlite transaction; when it fails, the
        attribute names it entered leave the domain's dictionary, as
        the rollback took them out of ``sdb_attribute_names``."""
        histories = self._domains[domain].histories
        apply = atomic(self._conn, request).apply

        def apply_or_forget(start: float, finish: float):
            known = histories.known_names()
            try:
                return apply(start, finish)
            except BaseException:
                histories.forget_names(known)
                raise

        request.apply = apply_or_forget
        return request

    def batch_put_request(self, domain: str, *args, **kwargs) -> Request:
        return self._atomic(
            domain, super().batch_put_request(domain, *args, **kwargs)
        )

    def put_request(self, domain: str, *args, **kwargs) -> Request:
        return self._atomic(domain, super().put_request(domain, *args, **kwargs))

    def delete_request(self, domain: str, *args, **kwargs) -> Request:
        return self._atomic(
            domain, super().delete_request(domain, *args, **kwargs)
        )

    # -- omniscient inspection ------------------------------------------------

    def stored_version_count(self, domain: str) -> int:
        """Raw row count in the sqlite store (tests: proves the data
        actually lives in the database, not in process memory)."""
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM sdb_versions"
            " WHERE domain = (SELECT id FROM sdb_domains WHERE name = ?)",
            (domain,),
        ).fetchone()
        return count
