"""The indexed select engine: planner, index maintenance, pagination.

The contract under test everywhere: the secondary indexes are an
over-approximation (every value an item ever held), every candidate is
re-verified through the eventually-consistent ``_observe`` read, and so
indexed selects are byte-identical — rows, row order, request counts,
billed bytes — to the ``use_indexes=False`` full-scan fallback.
"""

import pytest

import repro.cloud.simpledb as sdb_module
from repro.cloud.simpledb import (
    SelectPage,
    _pack,
    parse_select,
    prepare_select,
)
from repro.errors import InvalidRequestError


def _populate(sdb, domain):
    sdb.create_domain(domain)
    sdb.batch_put(
        domain,
        [
            ("u1_0", [("type", "proc"), ("name", "blast"), ("size", "10")]),
            ("u1_1", [("type", "proc"), ("name", "blast"), ("input", "u1_0")]),
            ("u2_0", [("type", "file"), ("name", "hits"), ("input", "u1_1")]),
            ("u2_1", [("type", "file"), ("name", "hits"), ("input", "u2_0")]),
            ("u3_0", [("type", "file"), ("name", "sorted"), ("input", "u2_1")]),
        ],
    )


#: Every operator/shape the planner must agree with the scan on,
#: including the unindexable ones that force the fallback.
_EXPRESSIONS = (
    "select * from d",
    "select * from d where type = 'proc'",
    "select * from d where type = 'nope'",
    "select * from d where itemName() = 'u2_0'",
    "select * from d where itemName() like 'u2_%'",
    "select * from d where itemName() like '%_0'",
    "select * from d where itemName() in ('u1_0', 'u3_0', 'ghost')",
    "select * from d where input in ('u1_1', 'u2_1')",
    "select * from d where type = 'file' and name = 'hits'",
    "select * from d where type = 'file' and size != '0'",
    "select * from d where name = 'blast' or name = 'sorted'",
    "select * from d where name = 'blast' or size != '0'",
    "select * from d where type != 'file'",
    "select * from d where (name = 'hits' or name = 'blast') and type = 'file'",
)


class TestPlannerEquivalence:
    def test_indexed_matches_scan_byte_for_byte(self, strict_account):
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        for expression in _EXPRESSIONS:
            sdb.use_indexes = True
            ops_before = strict_account.billing.snapshot()["simpledb"].get(
                "Select", 0
            )
            bytes_before = strict_account.billing.bytes_received()
            indexed = sdb.select(expression)
            indexed_ops = (
                strict_account.billing.snapshot()["simpledb"]["Select"] - ops_before
            )
            indexed_bytes = strict_account.billing.bytes_received() - bytes_before

            sdb.use_indexes = False
            ops_before = strict_account.billing.snapshot()["simpledb"]["Select"]
            bytes_before = strict_account.billing.bytes_received()
            scanned = sdb.select(expression)
            scan_ops = (
                strict_account.billing.snapshot()["simpledb"]["Select"] - ops_before
            )
            scan_bytes = strict_account.billing.bytes_received() - bytes_before
            sdb.use_indexes = True

            assert repr(indexed) == repr(scanned), expression
            assert indexed_ops == scan_ops, expression
            assert indexed_bytes == scan_bytes, expression

    def test_planner_stats_classify_chains(self, strict_account):
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        sdb.select("select * from d where name = 'blast'")
        assert sdb.select_stats.indexed == 1
        sdb.select("select * from d where type != 'file'")
        assert sdb.select_stats.scanned == 1
        sdb.select("select * from d")
        assert sdb.select_stats.unconditional == 1
        # A one-side-indexable AND narrows through the indexed side.
        sdb.select("select * from d where name = 'hits' and size != '0'")
        assert sdb.select_stats.indexed == 2
        # OR with an unindexable side cannot be narrowed.
        sdb.select("select * from d where name = 'hits' or size != '0'")
        assert sdb.select_stats.scanned == 2

    def test_like_patterns_precompiled(self):
        _, condition = parse_select("select * from d where name like 'a%b%c'")
        assert condition._like_re is not None
        assert condition.matches("i", _pack({"name": ["aXbYc"]}))
        assert not condition.matches("i", _pack({"name": ["aXbY"]}))

    def test_parse_cache_shares_conditions(self):
        first = parse_select("select * from d where name = 'shared'")
        second = parse_select("select * from d where name = 'shared'")
        assert first[1] is second[1]


class TestIndexMaintenance:
    def test_duplicate_reput_does_not_double_index(self, strict_account):
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        # A daemon re-commit re-issues the same writes (§4.3.3); set
        # semantics must keep both the item values and the index flat.
        for _ in range(3):
            sdb.put_attributes("d", "i", [("input", "u1_0"), ("type", "file")])
        assert sdb.index_cardinality("d", "input", "u1_0") == 1
        rows = sdb.select("select * from d where input = 'u1_0'")
        assert rows == [("i", {"input": ["u1_0"], "type": ["file"]})]
        # The sorted-name order holds exactly one entry for the item.
        assert [n for n, _ in sdb.select("select * from d")] == ["i"]

    def test_replace_keeps_superset_index_but_filters(self, strict_account):
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", "i", [("v", "old")])
        sdb.put_attributes("d", "i", [("v", "new")], replace=True)
        # The stale entry stays in the index (over-approximation)...
        assert sdb.index_cardinality("d", "v", "old") == 1
        # ...but verification filters it out of every answer.
        assert sdb.select("select * from d where v = 'old'") == []
        assert [n for n, _ in sdb.select("select * from d where v = 'new'")] == ["i"]

    def test_delete_hides_item_in_both_modes(self, strict_account):
        sdb = strict_account.simpledb
        _populate(sdb, "d")
        sdb.delete_attributes("d", "u2_0")
        for use_indexes in (True, False):
            sdb.use_indexes = use_indexes
            names = [n for n, _ in sdb.select("select * from d")]
            assert "u2_0" not in names
            assert sdb.select("select * from d where itemName() = 'u2_0'") == []
        sdb.use_indexes = True
        assert sdb.get_attributes("d", "u2_0") == {}
        # Deleting an absent item is a billable no-op.
        sdb.delete_attributes("d", "ghost")
        # Re-putting after a delete resurrects the item.
        sdb.put_attributes("d", "u2_0", [("type", "file")])
        assert [
            n for n, _ in sdb.select("select * from d where itemName() = 'u2_0'")
        ] == ["u2_0"]


class TestEventualConsistencyVisibility:
    def test_fresh_put_invisible_to_indexed_select(self, account):
        sdb = account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", "i", [("name", "fresh")])
        # The write is committed (it is in the index) but its visibility
        # window has not elapsed: the indexed select must agree with what
        # _observe shows, not with what the index holds.
        assert sdb.index_cardinality("d", "name", "fresh") == 1
        assert sdb.select("select * from d where name = 'fresh'") == []
        sdb.use_indexes = False
        assert sdb.select("select * from d where name = 'fresh'") == []
        sdb.use_indexes = True
        account.settle(120.0)
        rows = sdb.select("select * from d where name = 'fresh'")
        assert [n for n, _ in rows] == ["i"]

    def test_indexed_and_scan_agree_mid_propagation(self, account):
        sdb = account.simpledb
        sdb.create_domain("d")
        for n in range(12):
            sdb.put_attributes("d", f"i{n}", [("type", "file")])
        # Some writes are visible, some still propagating; whatever the
        # split, the two paths must agree row for row.
        for _ in range(6):
            account.settle(2.0)
            sdb.use_indexes = True
            indexed = sdb.select("select * from d where type = 'file'")
            sdb.use_indexes = False
            scanned = sdb.select("select * from d where type = 'file'")
            sdb.use_indexes = True
            assert repr(indexed) == repr(scanned)


class TestSnapshotPagination:
    def _tiny_pages(self, monkeypatch):
        monkeypatch.setattr(sdb_module, "SELECT_PAGE_ITEMS", 3)

    def test_chain_serves_from_snapshot(self, strict_account, monkeypatch):
        self._tiny_pages(monkeypatch)
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put(
            "d", [(f"i{n}", [("a", str(n))]) for n in range(8)]
        )
        before = strict_account.billing.snapshot()["simpledb"].get("Select", 0)
        rows = sdb.select("select * from d")
        pages = strict_account.billing.snapshot()["simpledb"]["Select"] - before
        assert [n for n, _ in rows] == [f"i{n}" for n in range(8)]
        assert pages == 3  # 3 + 3 + 2
        # The chain's snapshot is dropped once the last page is served.
        assert sdb._select_snapshots == {}

    def test_tokens_are_snapshot_tokens(self, strict_account, monkeypatch):
        self._tiny_pages(monkeypatch)
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put("d", [(f"i{n}", [("a", "v")]) for n in range(5)])
        page: SelectPage = strict_account.scheduler.execute_one(
            sdb.select_request("select * from d")
        )
        assert page.next_token.startswith("snap-")
        rest: SelectPage = strict_account.scheduler.execute_one(
            sdb.select_request("select * from d", page.next_token)
        )
        assert rest.complete
        assert [n for n, _ in page.rows + rest.rows] == [f"i{n}" for n in range(5)]

    def test_expired_or_malformed_tokens_rejected(
        self, strict_account, monkeypatch
    ):
        self._tiny_pages(monkeypatch)
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put("d", [(f"i{n}", [("a", "v")]) for n in range(5)])
        # A live chain: snapshot 1 exists, so every rejection below is
        # the token's form, not a missing snapshot.
        page: SelectPage = strict_account.scheduler.execute_one(
            sdb.select_request("select * from d")
        )
        assert page.next_token == "snap-1:3"
        for token in (
            "snap-999:3",  # never issued
            "snap-x:y",
            "bogus",
            "3",  # bare numeric offsets are not tokens
            "-4",
            "snap-1:-2",  # offsets are ASCII digits only
            "snap-1:+1",
            "snap-1: 2",
            "snap-1:\u0663",
            "snap-+1:3",
        ):
            with pytest.raises(InvalidRequestError):
                strict_account.scheduler.execute_one(
                    sdb.select_request("select * from d", token)
                )
        rest: SelectPage = strict_account.scheduler.execute_one(
            sdb.select_request("select * from d", page.next_token)
        )
        assert [n for n, _ in page.rows + rest.rows] == [
            f"i{n}" for n in range(5)
        ]


class TestSnapshotGC:
    """Abandoned select snapshots expire on virtual time, like SQS
    in-flight messages — long fleet runs stop leaking match sets."""

    def _tiny_pages(self, monkeypatch):
        monkeypatch.setattr(sdb_module, "SELECT_PAGE_ITEMS", 3)

    def _start_chain(self, strict_account):
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put("d", [(f"i{n}", [("a", "v")]) for n in range(8)])
        page: SelectPage = strict_account.scheduler.execute_one(
            sdb.select_request("select * from d")
        )
        assert page.next_token.startswith("snap-")
        return sdb, page

    def test_abandoned_snapshot_expires_after_ttl(
        self, strict_account, monkeypatch
    ):
        self._tiny_pages(monkeypatch)
        sdb, _page = self._start_chain(strict_account)
        assert len(sdb._select_snapshots) == 1
        # The chain is abandoned; any select past the TTL collects it.
        strict_account.clock.advance(
            sdb_module.SELECT_SNAPSHOT_TTL_SECONDS + 1.0
        )
        sdb.select("select * from d where itemName() = 'i0'")
        assert sdb._select_snapshots == {}
        assert sdb.select_stats.snapshots_expired == 1

    def test_snapshot_in_active_use_survives_the_ttl(
        self, strict_account, monkeypatch
    ):
        self._tiny_pages(monkeypatch)
        sdb, page = self._start_chain(strict_account)
        # Pages keep touching the snapshot: its GC clock resets, so a
        # slow-but-live chain is never collected under it.
        for _ in range(2):
            strict_account.clock.advance(
                sdb_module.SELECT_SNAPSHOT_TTL_SECONDS / 2
            )
            page = strict_account.scheduler.execute_one(
                sdb.select_request("select * from d", page.next_token)
            )
        assert sdb.select_stats.snapshots_expired == 0
        assert page.complete

    def test_expired_token_falls_back_to_rematch(
        self, strict_account, monkeypatch
    ):
        self._tiny_pages(monkeypatch)
        sdb, page = self._start_chain(strict_account)
        first_rows = [n for n, _ in page.rows]
        strict_account.clock.advance(
            sdb_module.SELECT_SNAPSHOT_TTL_SECONDS + 1.0
        )
        # The snapshot is gone, but the token was genuinely issued: the
        # page re-matches at its own observation time and the chain
        # completes with no rows lost — a clean degradation to
        # per-page semantics, not an error.
        rows = list(first_rows)
        token = page.next_token
        while token:
            page = strict_account.scheduler.execute_one(
                sdb.select_request("select * from d", token)
            )
            rows.extend(n for n, _ in page.rows)
            token = page.next_token
        assert rows == [f"i{n}" for n in range(8)]
        assert sdb.select_stats.expired_token_rematches >= 1

    def test_prepared_select_reused_across_chain(self, strict_account, monkeypatch):
        self._tiny_pages(monkeypatch)
        sdb = strict_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put("d", [(f"i{n}", [("a", "v")]) for n in range(7)])
        prepared = prepare_select("select * from d where a = 'v'")
        rows = sdb.select(prepared)
        assert len(rows) == 7
        # One chain, one planning decision — not one per page.
        assert sdb.select_stats.indexed == 1
