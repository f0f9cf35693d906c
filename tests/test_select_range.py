"""Range predicates: `<`/`<=`/`>`/`>=`/`between` off the sorted indexes.

The acceptance battery for the ordered-comparison grammar: every new
operator, against attributes and ``itemName()``, alone and under
AND/OR, must return rows, row order, and billed request/byte counts
byte-identical between the indexed planner and the ``use_indexes=False``
scan fallback — under strict consistency, mid-propagation, and across
snapshot-token page chains (mirroring ``test_select_equivalence.py``).

Comparisons are lexicographic on the raw strings, like the real
service: numeric attributes must be zero-padded by callers (the items
here use ``v:03d`` / ``mtime:06d``), and the battery pins the unpadded
footgun explicitly (``'10' < '2'``).
"""

import pytest

import repro.cloud.simpledb as sdb_module
from repro.cloud.simpledb import _pack, parse_select
from repro.errors import QuerysyntaxError


def _populate(sdb, domain):
    """A provenance-shaped domain: 12 versions across 3 objects, with
    zero-padded version and mtime attributes."""
    sdb.create_domain(domain)
    items = []
    for i in range(12):
        name = f"u{i // 4}_{i % 4}"
        items.append(
            (
                name,
                [
                    ("type", "proc" if i % 4 == 0 else "file"),
                    ("version", f"{i % 4:03d}"),
                    ("mtime", f"{100 + 10 * i:06d}"),
                    ("name", f"obj-{i // 4}"),
                ],
            )
        )
    sdb.batch_put(domain, items[:12])


#: Every ordered-comparison shape the planner must agree with the scan
#: on, including unindexable mixtures that force the fallback.
_EXPRESSIONS = (
    "select * from d where version < '002'",
    "select * from d where version <= '002'",
    "select * from d where version > '001'",
    "select * from d where version >= '003'",
    "select * from d where version between '001' and '002'",
    "select * from d where version between '002' and '001'",  # empty range
    "select * from d where mtime >= '000150' and mtime < '000190'",
    "select * from d where mtime between '000150' and '000180'",
    "select * from d where itemName() < 'u1_0'",
    "select * from d where itemName() >= 'u2_0'",
    "select * from d where itemName() between 'u0_2' and 'u1_1'",
    "select * from d where version >= '002' and type = 'file'",
    "select * from d where version < '001' or version > '002'",
    "select * from d where version between '000' and '001' and name = 'obj-1'",
    # OR with an unindexable side: the whole tree falls back to scan.
    "select * from d where version < '002' or type != 'file'",
    # AND with an unindexable side: narrowed through the range side.
    "select * from d where mtime > '000150' and type != 'proc'",
    # Range over an attribute no item has: empty either way.
    "select * from d where ghost between 'a' and 'z'",
)


def _run_fingerprint(account, sdb, expression):
    ops_before = account.billing.snapshot()["simpledb"].get("Select", 0)
    bytes_before = account.billing.bytes_received()
    rows = sdb.select(expression)
    return (
        repr(rows),
        account.billing.snapshot()["simpledb"]["Select"] - ops_before,
        account.billing.bytes_received() - bytes_before,
    )


def _assert_equivalent(account, sdb, expression):
    sdb.use_indexes = True
    indexed = _run_fingerprint(account, sdb, expression)
    sdb.use_indexes = False
    scanned = _run_fingerprint(account, sdb, expression)
    sdb.use_indexes = True
    assert indexed == scanned, expression


class TestRangeEquivalence:
    def test_every_operator_indexed_matches_scan(self, strict_account):
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        for expression in _EXPRESSIONS:
            _assert_equivalent(strict_account, sdb, expression)

    def test_ranges_agree_mid_propagation(self, account):
        """EC visibility: whatever subset of writes has propagated, the
        planner and the scan see the same subset."""
        sdb = account.simpledb
        _populate(sdb, "d")
        for _ in range(6):
            account.settle(2.0)
            for expression in (
                "select * from d where version >= '002'",
                "select * from d where mtime between '000120' and '000200'",
                "select * from d where itemName() < 'u2_0'",
            ):
                _assert_equivalent(account, sdb, expression)

    def test_range_chain_pages_off_snapshot(self, strict_account, monkeypatch):
        """A range select spanning several pages runs off one snapshot
        token chain, byte-identical to the scan chain."""
        monkeypatch.setattr(sdb_module, "SELECT_PAGE_ITEMS", 3)
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        expression = "select * from d where mtime >= '000110'"
        _assert_equivalent(strict_account, sdb, expression)
        sdb.use_indexes = True
        rows = sdb.select(expression)
        assert len(rows) == 11  # 4 pages in the chain
        assert sdb._select_snapshots == {}

    def test_planner_counts_ranges_as_indexed(self, strict_account):
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        sdb.select("select * from d where version between '001' and '002'")
        assert sdb.select_stats.indexed == 1
        sdb.select("select * from d where version < '002' or type != 'file'")
        assert sdb.select_stats.scanned == 1

    def test_lexicographic_order_not_numeric(self, strict_account):
        """The documented zero-padding caveat: unpadded numerics order
        as strings, so '10' < '2' — identically in both modes."""
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put(
            "d",
            [
                ("a", [("n", "2")]),
                ("b", [("n", "10")]),
                ("c", [("n", "030")]),
            ],
        )
        expression = "select * from d where n < '2'"
        _assert_equivalent(strict_account, sdb, expression)
        rows = sdb.select(expression)
        # Lexicographically '030' < '10' < '2'.
        assert [n for n, _ in rows] == ["b", "c"]

    def test_between_bounds_inclusive(self):
        _, condition = parse_select(
            "select * from d where v between 'b' and 'd'"
        )
        assert condition.matches("i", _pack({"v": ["b"]}))
        assert condition.matches("i", _pack({"v": ["d"]}))
        assert not condition.matches("i", _pack({"v": ["a"]}))
        assert not condition.matches("i", _pack({"v": ["e"]}))

    def test_between_requires_and(self):
        with pytest.raises(QuerysyntaxError):
            parse_select("select * from d where v between 'a' or 'b'")
        with pytest.raises(QuerysyntaxError):
            parse_select("select * from d where v between 'a'")


class TestDeleteUnindexesRanges:
    """The fix: ``DeleteAttributes`` of a single attribute (or pair)
    removes the sorted-index entries once the delete has propagated —
    not just a whole-item delete — and the deleted value stops matching
    a range immediately in *both* modes (verification hides it even
    before the index is pruned)."""

    def test_deleted_value_stops_matching_range(self, strict_account):
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        expression = "select * from d where version between '001' and '002'"
        before = [n for n, _ in sdb.select(expression)]
        assert "u1_1" in before
        sdb.delete_attributes("d", "u1_1", [("version", "001")])
        _assert_equivalent(strict_account, sdb, expression)
        after = [n for n, _ in sdb.select(expression)]
        assert "u1_1" not in after
        # The rest of the item survives the single-pair delete.
        assert sdb.get_attributes("d", "u1_1")["mtime"] == ["000150"]

    def test_sorted_index_entry_pruned_after_visibility(self, strict_account):
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put(
            "d",
            [("i1", [("v", "001")]), ("i2", [("v", "002")])],
        )
        assert sdb.sorted_index_values("d", "v") == ["001", "002"]
        sdb.delete_attributes("d", "i1", ["v"])
        # Strict consistency: the delete is visible at once, so the next
        # select prunes the dangling entry.
        sdb.select("select * from d where v >= '000'")
        assert sdb.sorted_index_values("d", "v") == ["002"]
        assert sdb.select_stats.unindexed_pruned == 1

    def test_whole_item_delete_also_prunes(self, strict_account):
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", "i1", [("v", "001"), ("t", "x")])
        sdb.delete_attributes("d", "i1")
        sdb.select("select * from d where v < 'zzz'")
        assert sdb.sorted_index_values("d", "v") == []
        assert sdb.sorted_index_values("d", "t") == []

    def test_prune_waits_for_propagation(self, account):
        """Under eventual consistency the entry must survive until the
        delete is visible — a stale read can still observe the old value
        and the planner's candidates must stay a superset."""
        sdb = account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", "i1", [("v", "001")])
        account.settle(120.0)
        sdb.delete_attributes("d", "i1", [("v", "001")])
        expression = "select * from d where v between '000' and '002'"
        # Mid-propagation: both modes agree at every step, and the index
        # still holds the entry (the delete may not be visible yet).
        for _ in range(4):
            _assert_equivalent(account, sdb, expression)
            account.settle(2.0)
        account.settle(120.0)
        sdb.select(expression)
        assert sdb.sorted_index_values("d", "v") == []
        assert sdb.select("select * from d where v = '001'") == []

    def test_reput_cancels_pending_unindex(self, account):
        """Delete then re-put of the same pair inside the propagation
        window: the re-put wins and the entry must never be pruned."""
        sdb = account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", "i1", [("v", "001")])
        account.settle(120.0)
        sdb.delete_attributes("d", "i1", [("v", "001")])
        sdb.put_attributes("d", "i1", [("v", "001")])
        account.settle(120.0)
        sdb.select("select * from d where v < 'zzz'")
        assert sdb.sorted_index_values("d", "v") == ["001"]
        rows = sdb.select("select * from d where v between '000' and '002'")
        assert [n for n, _ in rows] == ["i1"]

    def test_deleting_last_attribute_deletes_item(self, strict_account):
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", "i1", [("v", "001")])
        sdb.delete_attributes("d", "i1", ["v"])
        assert sdb.get_attributes("d", "i1") == {}
        assert sdb.select("select * from d") == []
