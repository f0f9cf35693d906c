"""Unit tests for the cost-based select planner and its substrate.

Four layers, bottom up: the write-time selectivity statistics the cost
model reads (incremental, delete-aware); the planner decisions
themselves — a range indexed where a quarter-domain cutoff would have
scanned, without changing a single row against the scan, cheapest-first
``AND`` ordering with verify-only skips, and the ``explain()`` plan
dump; the per-shard Bloom filters (no false negatives ever, false
positives harmless even when forced); and the riders — attribute
interning, the index-memory gauge, and the per-engine ``IN`` chunk
tunable.
"""

import random
import sys

import pytest

from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.query.engine import ShardedSimpleDBQueryEngine, SimpleDBQueryEngine
from repro.service import IngestGateway, ShardRouter
from repro.service.bloom import BloomFilter, ShardBloomIndex
from repro.workloads.fleet import FLEET_PROGRAM, make_fleet, run_fleet


def _account(seed=11):
    return CloudAccount(consistency=ConsistencyModel.STRICT, seed=seed)


def _seed_small(sdb):
    """Six items; ``tag`` has value 'a' on four of them, 'b' on two."""
    sdb.create_domain("d")
    items = []
    for i in range(6):
        pairs = [("type", "file"), ("tag", "a" if i < 4 else "b")]
        items.append((f"it{i:02d}_0", pairs))
    sdb.batch_put("d", items)
    return items


def _seed_wide(sdb, count=2000):
    """A domain wide enough for the index-vs-scan cut to matter: ``v`` is
    unique per item (mean set size 1.0), ``u = 'rare'`` marks three."""
    sdb.create_domain("w")
    rare = {1: "0001", 500: "0500", 1500: "1500"}
    items = []
    for i in range(count):
        pairs = [("v", f"{i:04d}"), ("type", "file")]
        if i in rare:
            pairs.append(("u", "rare"))
        items.append((f"w{i:05d}_0", pairs))
    for start in range(0, len(items), 25):
        sdb.batch_put("w", items[start : start + 25])


class TestSelectivityStats:
    def test_write_time_counts(self):
        sdb = _account().simpledb
        _seed_small(sdb)
        tag = sdb.selectivity("d", "tag")
        assert tag.distinct_values == 2
        assert tag.postings == 6
        assert tag.mean_set_size == 3.0
        # log2 buckets: the 4-item set lands in bucket 3, the 2-item
        # set in bucket 2.
        assert tag.set_size_histogram == {3: 1, 2: 1}
        assert sdb.selectivity("d", "type").distinct_values == 1
        assert sdb.selectivity("d", "nope").postings == 0
        assert sdb.selectivity("ghost-domain", "tag").mean_set_size == 0.0

    def test_duplicate_puts_do_not_inflate(self):
        account = _account()
        sdb = account.simpledb
        items = _seed_small(sdb)
        sdb.batch_put("d", items)  # same pairs again
        assert sdb.selectivity("d", "tag").postings == 6

    def test_delete_propagation_decrements(self):
        account = _account()
        sdb = account.simpledb
        _seed_small(sdb)
        sdb.delete_attributes("d", "it00_0", [("tag", "a")])
        account.settle(120.0)
        sdb.select("select * from d where tag = 'a'")  # triggers pruning
        tag = sdb.selectivity("d", "tag")
        assert tag.postings == 5
        assert tag.distinct_values == 2
        # 'a' shrank from a 4-set (bucket 3) to a 3-set (bucket 2).
        assert tag.set_size_histogram == {2: 2}
        assert sdb.select_stats.unindexed_pruned >= 1


class TestCostPlanner:
    def test_cost_indexes_where_fixed_planner_bails(self):
        """A range spanning 600 of 2000 distinct values is past a
        quarter-domain cutoff (500) but well under the cost threshold
        (1000): the cost planner indexes it, and its rows match the
        scan's."""
        account = _account()
        sdb = account.simpledb
        _seed_wide(sdb)
        expression = "select * from w where v between '0000' and '0599'"

        indexed = sdb.select_stats.indexed
        cost_rows = sdb.select(expression)
        assert sdb.select_stats.indexed == indexed + 1
        assert sdb.explain(expression)["decision"] == "index"

        sdb.use_indexes = False
        scanned_rows = sdb.select(expression)
        sdb.use_indexes = True
        assert repr(cost_rows) == repr(scanned_rows)
        assert len(cost_rows) == 600

    def test_cost_bails_out_on_scan_sized_estimates(self):
        """A range spanning 1500 of 2000 values prices at or above the
        scan threshold: the cost planner scans and says so."""
        account = _account()
        sdb = account.simpledb
        _seed_wide(sdb)
        expression = "select * from w where v between '0000' and '1499'"
        bailouts = sdb.select_stats.cost_bailouts
        before = sdb.select_stats.scanned
        rows = sdb.select(expression)
        assert len(rows) == 1500
        assert sdb.select_stats.scanned == before + 1
        assert sdb.select_stats.cost_bailouts == bailouts + 1
        plan = sdb.explain(expression)
        assert plan["decision"] == "scan"
        assert plan["cost_bailout"] is True
        assert plan["estimated_candidates"] >= plan["scan_threshold"]

    def test_and_walks_cheapest_side_first_and_skips_wide_sides(self):
        """Under AND the 3-item ``u = 'rare'`` side seeds the candidate
        set; the 600-value range side costs more to intersect than the
        rows it would remove, so it is left to verification — counted,
        and visible in the plan as a verify-only node."""
        account = _account()
        sdb = account.simpledb
        _seed_wide(sdb)
        expression = (
            "select * from w where u = 'rare'"
            " and v between '0000' and '0599'"
        )
        skipped = sdb.select_stats.and_sides_skipped
        rows = sdb.select(expression)
        # Verification enforced the skipped side: of the three 'rare'
        # items only v=0001 and v=0500 are in range.
        assert sorted(name for name, _ in rows) == ["w00001_0", "w00500_0"]
        assert sdb.select_stats.and_sides_skipped == skipped + 1

        plan = sdb.explain(expression)
        assert plan["decision"] == "index"
        assert plan["and_sides_skipped"] == 1
        actions = {node["node"]: node["action"] for node in plan["nodes"]}
        assert any(
            action == "verify-only"
            for node, action in actions.items()
            if node.startswith("v between")
        )
        assert any(
            action == "index"
            for node, action in actions.items()
            if node.startswith("u =")
        )

    def test_explain_shapes(self):
        account = _account()
        sdb = account.simpledb
        _seed_small(sdb)
        plan = sdb.explain("select * from d where tag = 'a'")
        assert plan["planner"] == "cost"
        assert plan["decision"] == "index"
        assert plan["domain_items"] == 6
        assert plan["estimated_candidates"] == 4
        assert plan["candidates"] == 4
        assert plan["cost_bailout"] is False

        assert sdb.explain("select * from d")["decision"] == (
            "unconditional-scan"
        )

        sdb.use_indexes = False
        assert sdb.explain("select * from d where tag = 'a'") == {
            "domain": "d",
            "planner": "scan",
            "domain_items": 6,
            "scan_threshold": 64,
            "decision": "scan",
        }
        sdb.use_indexes = True

    def test_explain_moves_no_stats_and_bills_nothing(self):
        account = _account()
        sdb = account.simpledb
        _seed_small(sdb)
        stats_before = repr(sdb.select_stats)
        billed = account.billing.snapshot()["simpledb"].get("Select", 0)
        sdb.explain("select * from d where tag = 'a'")
        assert repr(sdb.select_stats) == stats_before
        assert (
            account.billing.snapshot()["simpledb"].get("Select", 0) == billed
        )


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(size_bits=2048, hashes=4)
        tokens = [f"tok-{i}" for i in range(400)]
        for token in tokens:
            bloom.add(token)
        assert all(token in bloom for token in tokens)
        assert bloom.count == 400

    def test_deterministic_across_instances(self):
        a, b = BloomFilter(size_bits=1024), BloomFilter(size_bits=1024)
        for token in ("x", "y", "z"):
            a.add(token)
            b.add(token)
        assert a.to_bytes() == b.to_bytes()
        b.add("w")
        assert a.to_bytes() != b.to_bytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(size_bits=4)
        with pytest.raises(ValueError):
            BloomFilter(hashes=0)

    def test_shard_index_separates_domains_and_token_kinds(self):
        index = ShardBloomIndex(["s0", "s1"])
        index.note_items("s0", [("x_0", [("type", "file")])])
        assert index.might_contain_name("s0", "x_0")
        assert not index.might_contain_name("s1", "x_0")
        assert index.might_contain_value("s0", "type", "file")
        assert not index.might_contain_value("s1", "type", "file")
        # A name token never answers for a value probe (tag separation).
        assert not index.might_contain_value("s0", "x_0", "")
        # Unknown domains stay conservative: might match.
        assert index.might_contain_name("elsewhere", "x_0")
        assert index.might_contain_any_value("elsewhere", "a", ["v"])
        assert index.memory_bytes() > 0

    def test_forced_false_positives_never_change_answers(self):
        """Tiny saturated filters (8 bits for a whole fleet) answer
        "might match" for nearly everything — the engine must still
        return byte-identical rows to full fan-out, because every
        contacted shard re-verifies through the select itself."""
        account = CloudAccount(seed=5)
        router = ShardRouter(shards=3, bloom_size_bits=8, bloom_hashes=1)
        gateway = IngestGateway(account, router)
        run_fleet(
            account,
            gateway,
            make_fleet(clients=4, files_per_client=2, seed=5),
            seed=5,
        )
        account.settle(120.0)
        assert router.bloom.filter_for(router.domains[0]).fill_ratio() > 0.5
        tiny = ShardedSimpleDBQueryEngine(account, router)
        naive = ShardedSimpleDBQueryEngine(account, router, bloom_routing=False)
        t4, _ = tiny.q4_all_descendants(FLEET_PROGRAM)
        n4, _ = naive.q4_all_descendants(FLEET_PROGRAM)
        assert repr(t4) == repr(n4)
        t3, _ = tiny.q3_direct_outputs("no-such-program")
        assert t3 == []


class TestRiders:
    def test_attribute_names_and_values_are_interned(self):
        sdb = _account().simpledb
        sdb.create_domain("d")
        # Runtime-constructed strings (not source literals, so not
        # auto-interned by the compiler).
        attribute = "".join(random.Random(3).choices("abcdef", k=12))
        value = "-".join(["val", "0042"])
        sdb.put_attributes("d", "x_0", [(attribute, value)])
        state = sdb._domains["d"]
        stored_attr = next(a for a in state.by_attr if a == attribute)
        assert stored_attr is sys.intern(attribute)
        stored_value = next(
            v for v in state.by_attr[stored_attr] if v == value
        )
        assert stored_value is sys.intern(value)

    def test_index_memory_gauge_reports(self):
        account = _account()
        sdb = account.simpledb
        _seed_small(sdb)
        assert sdb.index_memory_bytes() > 0
        snapshot = account.telemetry.metrics.snapshot()
        values = [
            value
            for key, value in snapshot.items()
            if key.startswith("sdb.index.memory_bytes")
        ]
        assert values and values[0] > 0

    def test_in_chunk_is_tunable_per_engine(self):
        account = CloudAccount(seed=5)
        router = ShardRouter(shards=2)
        gateway = IngestGateway(account, router)
        run_fleet(
            account,
            gateway,
            make_fleet(clients=5, files_per_client=3, seed=5),
            seed=5,
        )
        account.settle(120.0)
        small = ShardedSimpleDBQueryEngine(account, router, in_chunk=2)
        wide = ShardedSimpleDBQueryEngine(account, router)
        assert wide.in_chunk == 20
        s4, _ = small.q4_all_descendants(FLEET_PROGRAM)
        w4, _ = wide.q4_all_descendants(FLEET_PROGRAM)
        assert repr(s4) == repr(w4)
        assert len(s4) > 2
        # Smaller chunks, more selects — same bytes of answer.
        issued_small = (
            small.fanout.fanned_out_selects
            + small.fanout.single_shard_chunks
        )
        issued_wide = (
            wide.fanout.fanned_out_selects + wide.fanout.single_shard_chunks
        )
        assert issued_small > issued_wide

    def test_in_chunk_validation(self):
        account = _account()
        with pytest.raises(ValueError):
            SimpleDBQueryEngine(account, in_chunk=0)
