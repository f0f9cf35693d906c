"""The local backend's dictionary-coded rows.

A ``sdb_versions`` row names its domain by ``sdb_domains`` id and each
attribute name by its id in the domain's dictionary
(``sdb_attribute_names``).  The coding must be invisible from outside:
a generated mix of puts, batch puts, ``replace`` puts and deletes, with
names and values that need quoting or are not ASCII, reads back on
local exactly as on sim, before and after a reopen.  And a request that
rolls back must take its new names out of the process's copy of the
dictionary too, or the next row would carry an id sqlite never stored.
"""

import json
import sqlite3
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.parity import store_fingerprint
from repro.cloud import CloudAccount, simpledb

_CHARS = list("a_%'\" é名😀")
#: A few fixed strings, so that writes and deletes meet on the same
#: items and names, and any short string besides.
_TEXT = st.one_of(
    st.sampled_from(["", "a", "%_", "it's", '"q"', "名前"]),
    st.text(alphabet=_CHARS, max_size=4),
)
_ITEM = st.one_of(
    st.sampled_from(["i", "_%", "it's", '"名"']),
    st.text(alphabet=_CHARS, min_size=1, max_size=3),
)
_PAIRS = st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=6)

#: 256 pairs, the per-item limit, each under a name no other write uses.
_WIDE = [(f"w{n}_%'é", f"v{n % 7}") for n in range(simpledb.ITEM_ATTRIBUTE_LIMIT)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _ITEM, _PAIRS, st.booleans()),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(_ITEM, _PAIRS), min_size=1, max_size=4),
            st.booleans(),
        ),
        st.tuples(st.just("wide"), _ITEM),
        st.tuples(
            st.just("delete"),
            _ITEM,
            st.one_of(
                st.none(),
                st.lists(st.one_of(_TEXT, st.tuples(_TEXT, _TEXT)), max_size=3),
            ),
        ),
    ),
    min_size=1,
    max_size=12,
)


def _apply(sdb, op):
    kind = op[0]
    if kind == "put":
        _, item, pairs, replace = op
        sdb.put_attributes("d", item, pairs, replace=replace)
    elif kind == "batch":
        _, items, replace = op
        sdb.batch_put("d", items, replace=replace)
    elif kind == "wide":
        sdb.batch_put("d", [(op[1], _WIDE)])
    else:
        _, item, attributes = op
        sdb.delete_attributes("d", item, attributes)


def _billing(account):
    return account.billing.cost(), {
        service: (dict(usage.requests), usage.bytes_in, usage.bytes_out, usage.items)
        for service, usage in account.billing.usage.items()
    }


def _pages(account):
    """Every page of ``select * from d`` (three rows a page), and the
    Select requests and response bytes the chain billed."""
    sdb = account.simpledb
    usage = account.billing.usage["simpledb"]
    before = usage.requests["Select"], usage.bytes_out
    pages, token = [], ""
    with mock.patch.object(simpledb, "SELECT_PAGE_ITEMS", 3):
        while True:
            page = account.scheduler.execute_one(
                sdb.select_request("select * from d", token)
            )
            pages.append(page.rows)
            if page.complete:
                after = usage.requests["Select"], usage.bytes_out
                return pages, (after[0] - before[0], after[1] - before[1])
            token = page.next_token


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_writes_read_back_alike_on_local_and_sim_and_after_reopen(ops):
    with tempfile.TemporaryDirectory() as root:
        sim = CloudAccount(seed=5)
        local = CloudAccount(seed=5, backend="local", backend_root=root)
        try:
            for account in (sim, local):
                account.simpledb.create_domain("d")
                for op in ops:
                    _apply(account.simpledb, op)
                account.settle(120.0)
            assert _billing(local) == _billing(sim)
            assert _pages(local) == _pages(sim)
            assert store_fingerprint(local) == store_fingerprint(sim)

            local.close()
            local = CloudAccount(seed=5, backend="local", backend_root=root)
            assert store_fingerprint(local) == store_fingerprint(sim)
            # The reopened clock starts at 0: settle it past every stamp.
            local.settle(sim.now + 120.0)
            assert _pages(local) == _pages(sim)
        finally:
            sim.close()
            local.close()


_ITEMS = [(f"item-{n:02d}", [("type", "file"), ("n", f"{n:02d}")]) for n in range(25)]


def _decoded_rows(conn):
    """Every row of domain ``d``, decoded with SQL alone (the dictionary
    joined in): ``(item, packed)``, or a KeyError naming an id the
    dictionary lacks."""
    names = dict(
        conn.execute(
            "SELECT n.id, n.name FROM sdb_attribute_names n"
            " JOIN sdb_domains d ON n.domain = d.id WHERE d.name = 'd'"
        )
    )
    rows = conn.execute(
        "SELECT v.item, v.attrs FROM sdb_versions v"
        " JOIN sdb_domains d ON v.domain = d.id"
        " WHERE d.name = 'd' AND v.deleted = 0 ORDER BY v.seq"
    )
    decoded = []
    for item, attrs in rows:
        coded = json.loads(attrs)
        coded[::2] = [names[code] for code in coded[::2]]
        decoded.append((item, tuple(coded)))
    return decoded


def _before(sdb):
    sdb.batch_put("d", _ITEMS)


def _after(sdb):
    """Writes that use the failed request's new name, and a newer one."""
    sdb.batch_put("d", [("after", [("blob", "y"), ("type", "file")])])
    sdb.put_attributes("d", "later", [("late", "1"), ("blob", "z")])


def test_a_rolled_back_new_name_leaves_the_dictionary(tmp_path):
    """A BatchPut that enters the name ``blob`` fails with SQLITE_FULL
    and rolls back.  Once the cap is lifted, writes that use ``blob``
    and a newer name decode from the rows alone, live and after a
    reopen, and the store fingerprints as the same writes without the
    failed one."""
    account = CloudAccount(seed=0, backend="local", backend_root=str(tmp_path / "a"))
    reference = CloudAccount(seed=0, backend="local", backend_root=str(tmp_path / "b"))
    try:
        for each in (account, reference):
            each.simpledb.create_domain("d")
        _before(account.simpledb)
        _before(reference.simpledb)

        conn = account.simpledb._conn
        (pages,) = conn.execute("PRAGMA page_count").fetchone()
        conn.execute(f"PRAGMA max_page_count = {pages}")
        wide = [(name, pairs + [("blob", "x" * 1000)]) for name, pairs in _ITEMS]
        with pytest.raises(sqlite3.OperationalError, match="full"):
            account.simpledb.batch_put("d", wide)
        conn.execute("PRAGMA max_page_count = 1073741823")

        _after(account.simpledb)
        _after(reference.simpledb)
        rows = _decoded_rows(conn)
        assert rows == _decoded_rows(reference.simpledb._conn)
        assert rows[-2:] == [
            ("after", ("blob", "y", "type", "file")),
            ("later", ("late", "1", "blob", "z")),
        ]
        account.settle(120.0)
        reference.settle(120.0)
        fingerprint = store_fingerprint(reference)
        assert store_fingerprint(account) == fingerprint

        account.close()
        account = CloudAccount(
            seed=0, backend="local", backend_root=str(tmp_path / "a")
        )
        assert _decoded_rows(account.simpledb._conn) == rows
        assert store_fingerprint(account) == fingerprint
    finally:
        account.close()
        reference.close()
