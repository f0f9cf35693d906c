"""Tests for the simulated SimpleDB service and its select parser."""

import pytest

from repro.cloud.simpledb import (
    ATTRIBUTE_LIMIT_BYTES,
    BATCH_PUT_LIMIT,
    SELECT_PAGE_ITEMS,
    _pack,
    parse_select,
)
from repro.errors import (
    InvalidRequestError,
    LimitExceededError,
    NoSuchDomainError,
    QuerysyntaxError,
)


@pytest.fixture
def domain(strict_account):
    strict_account.simpledb.create_domain("d")
    return "d"


class TestPutGet:
    def test_roundtrip(self, strict_account, domain):
        sdb = strict_account.simpledb
        sdb.put_attributes(domain, "item1", [("name", "foo"), ("type", "file")])
        attributes = sdb.get_attributes(domain, "item1")
        assert attributes == {"name": ["foo"], "type": ["file"]}

    def test_multi_valued_attributes_append(self, strict_account, domain):
        sdb = strict_account.simpledb
        sdb.put_attributes(domain, "i", [("input", "a_1")])
        sdb.put_attributes(domain, "i", [("input", "b_2")])
        assert sorted(sdb.get_attributes(domain, "i")["input"]) == ["a_1", "b_2"]

    def test_replace_overwrites(self, strict_account, domain):
        sdb = strict_account.simpledb
        sdb.put_attributes(domain, "i", [("v", "old")])
        sdb.put_attributes(domain, "i", [("v", "new")], replace=True)
        assert sdb.get_attributes(domain, "i")["v"] == ["new"]

    def test_get_missing_item_is_empty(self, strict_account, domain):
        assert strict_account.simpledb.get_attributes(domain, "nope") == {}

    def test_missing_domain(self, strict_account):
        with pytest.raises(NoSuchDomainError):
            strict_account.simpledb.get_attributes("nope", "i")

    def test_value_size_limit(self, strict_account, domain):
        with pytest.raises(LimitExceededError):
            strict_account.simpledb.put_attributes(
                domain, "i", [("v", "x" * (ATTRIBUTE_LIMIT_BYTES + 1))]
            )

    def test_batch_limit(self, strict_account, domain):
        items = [(f"i{n}", [("a", "v")]) for n in range(BATCH_PUT_LIMIT + 1)]
        with pytest.raises(LimitExceededError):
            strict_account.simpledb.batch_put(domain, items)

    def test_empty_batch_rejected(self, strict_account, domain):
        with pytest.raises(InvalidRequestError):
            strict_account.simpledb.batch_put(domain, [])

    def test_put_payload_is_every_name_and_value_in_utf8(
        self, strict_account, domain
    ):
        sdb = strict_account.simpledb
        items = [("é1", [("näme", "vàl"), ("a", "")]), ("i2", [("b", "€")])]
        expected = [2 + 1 + 5 + 4 + 1, 2 + 1 + 3]  # name + pairs, in bytes
        assert sdb.batch_put_request(domain, items).payload_bytes == sum(expected)
        for (name, pairs), size in zip(items, expected):
            assert sdb.put_request(domain, name, pairs).payload_bytes == size

    def test_batch_put_stores_all_items(self, strict_account, domain):
        sdb = strict_account.simpledb
        items = [(f"i{n}", [("n", str(n))]) for n in range(25)]
        sdb.batch_put(domain, items)
        for n in range(25):
            assert sdb.get_attributes(domain, f"i{n}") == {"n": [str(n)]}


class TestSelectParser:
    def test_plain_select(self):
        domain, condition = parse_select("select * from mydomain")
        assert domain == "mydomain"
        assert condition is None

    def test_equality(self):
        _, cond = parse_select("select * from d where name = 'foo'")
        assert cond.matches("i", _pack({"name": ["foo"]}))
        assert not cond.matches("i", _pack({"name": ["bar"]}))

    def test_quoted_escape(self):
        _, cond = parse_select("select * from d where name = 'it''s'")
        assert cond.matches("i", _pack({"name": ["it's"]}))

    def test_and_or_precedence(self):
        _, cond = parse_select(
            "select * from d where type = 'file' and name = 'a' or name = 'b'"
        )
        assert cond.matches("i", _pack({"name": ["b"]}))
        assert cond.matches("i", _pack({"type": ["file"], "name": ["a"]}))
        assert not cond.matches("i", _pack({"type": ["proc"], "name": ["a"]}))

    def test_parentheses(self):
        _, cond = parse_select(
            "select * from d where type = 'file' and (name = 'a' or name = 'b')"
        )
        assert not cond.matches("i", _pack({"name": ["b"]}))
        assert cond.matches("i", _pack({"type": ["file"], "name": ["b"]}))

    def test_like_prefix(self):
        _, cond = parse_select("select * from d where itemName() like 'uuid1_%'")
        assert cond.matches("uuid1_2", _pack({}))
        assert not cond.matches("uuid2_2", _pack({}))

    def test_in_list(self):
        _, cond = parse_select("select * from d where input in ('a_1', 'b_2')")
        assert cond.matches("i", _pack({"input": ["b_2"]}))
        assert not cond.matches("i", _pack({"input": ["c_3"]}))

    def test_not_equal(self):
        _, cond = parse_select("select * from d where type != 'file'")
        assert cond.matches("i", _pack({"type": ["proc"]}))
        assert not cond.matches("i", _pack({"type": ["file"]}))
        # Absent attribute: no value differs, so no match (SimpleDB).
        assert not cond.matches("i", _pack({}))

    def test_multi_valued_any_semantics(self):
        _, cond = parse_select("select * from d where input = 'x_1'")
        assert cond.matches("i", _pack({"input": ["a_0", "x_1"]}))

    def test_syntax_errors(self):
        for bad in (
            "drop table d",
            "select * from",
            "select * from d where",
            "select * from d where name ==",
            "select * from d where name = unquoted",
        ):
            with pytest.raises(QuerysyntaxError):
                parse_select(bad)


class TestSelectExecution:
    def test_select_all(self, strict_account, domain):
        sdb = strict_account.simpledb
        sdb.batch_put(domain, [("a", [("t", "1")]), ("b", [("t", "2")])])
        rows = sdb.select(f"select * from {domain}")
        assert [name for name, _ in rows] == ["a", "b"]

    def test_select_filter(self, strict_account, domain):
        sdb = strict_account.simpledb
        sdb.batch_put(
            domain,
            [
                ("p1", [("type", "proc"), ("name", "blast")]),
                ("f1", [("type", "file"), ("name", "out")]),
            ],
        )
        rows = sdb.select(f"select * from {domain} where type = 'proc'")
        assert [name for name, _ in rows] == ["p1"]

    def test_select_paginates(self, strict_account, domain):
        sdb = strict_account.simpledb
        total = SELECT_PAGE_ITEMS + 10
        for start in range(0, total, 25):
            batch = [
                (f"i{n:06d}", [("a", "v")])
                for n in range(start, min(start + 25, total))
            ]
            sdb.batch_put(domain, batch)
        before = strict_account.billing.snapshot()["simpledb"].get("Select", 0)
        rows = sdb.select(f"select * from {domain}")
        selects = strict_account.billing.snapshot()["simpledb"]["Select"] - before
        assert len(rows) == total
        assert selects == 2  # two pages

    def test_eventual_consistency_hides_fresh_items(self, account):
        account.simpledb.create_domain("d")
        account.simpledb.put_attributes("d", "i", [("a", "v")])
        account.settle(120.0)
        assert account.simpledb.get_attributes("d", "i") == {"a": ["v"]}
