"""The array-backed index substrate: units, equivalence, accounting.

Five layers of coverage for the memory-lean store:

- unit tests of the substrate: the ``_NameTable`` (ids in first-write
  order, the sorted order with each id beside it, the out-of-order
  tail), the posting layout that follows cardinality (inline id ->
  bare sorted ``array('I')`` -> a wide ``_SortedIdRun`` with a pending
  tail, and back), and the ``_SortedStringRun`` of distinct values —
  including the tail-merge boundaries and seeded fuzzes against plain
  set references;
- one test per branch of the id-space candidate algebra (``=``, ``IN``,
  ``itemName()`` leaves, prefix and range slices, AND/OR) against a
  brute-force string-set answer computed from the same items;
- frozen fingerprints: the select-fuzz batteries (strict, with deletes
  interleaved, mid-propagation, and on the sqlite backend before and
  after reopen) replayed with every tree checked against the scan, and
  each battery's fingerprint list (rows, select ops, billed bytes)
  hashed against ``tests/golden/select_fuzz.json`` — digests recorded
  while the dict-of-sets store and the fixed-bailout planner still
  existed and agreed tree for tree;
- a seeded put/delete/select interleaving property test asserting the
  incremental selectivity stats (``attr_postings``, ``set_size_hist``)
  equal a from-scratch recount — no negative counts, no leaked
  histogram buckets, no empty inner containers;
- memory-gauge tests: ``index_memory_bytes`` pinned against a
  ``tracemalloc``-measured build (a mixed and a singleton-heavy
  domain), gauge monotonicity as a domain grows and across an
  inline -> run -> inline round trip, and bytes per item strictly
  below the recorded dict-of-sets figure on equal data.
"""

import hashlib
import json
import random
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import repro.cloud.simpledb as simpledb
from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.simpledb import (
    SELECT_PAGE_ITEMS,
    _BoolOp,
    _DomainState,
    _NameTable,
    _SortedIdRun,
    _SortedStringRun,
    _plan_candidates_cost,
    _posting_add,
    _posting_discard,
    _posting_ids,
    parse_select,
)
from test_select_fuzz import (
    _random_tree,
    _seed_store,
    checked_fingerprint,
    replay_battery,
)


# --------------------------------------------------------------------------
# Substrate units
# --------------------------------------------------------------------------

class TestNameTable:
    def test_ids_assigned_in_first_seen_order(self):
        table = _NameTable()
        assert table.intern("b") == 0
        assert table.intern("a") == 1
        assert table.intern("b") == 0  # idempotent
        assert table.by_id == ["b", "a"]
        assert table.id_of("a") == 1
        assert table.id_of("missing") is None
        assert len(table) == 2

    def test_in_order_names_never_wait_in_the_tail(self):
        table = _NameTable()
        names = [f"n{i:05d}" for i in range(1000)]
        for name in names:
            table.intern(name)
        assert not table._tail
        assert table.ordered() == names
        assert list(table.ordered_ids()) == list(range(1000))

    def test_ordered_read_folds_the_tail_and_keeps_ids_beside_names(self):
        table = _NameTable()
        for name in ("m", "z", "a", "k"):  # a, k arrive out of order
            table.intern(name)
        assert set(table._tail) == {"a", "k"}
        assert table.id_of("k") == 3  # found while still in the tail
        assert table.ordered() == ["a", "k", "m", "z"]
        assert list(table.ordered_ids()) == [2, 3, 0, 1]
        assert not table._tail  # compacted by the read
        assert table.id_of("k") == 3

    def test_tail_folds_at_the_threshold_without_a_read(self):
        table = _NameTable()
        table.intern("zzzz")
        threshold = simpledb._TAIL_MERGE_THRESHOLD
        for i in range(threshold - 1):
            table.intern(f"a{i:06d}")
        assert len(table._tail) == threshold - 1
        table.intern("a999999")
        assert not table._tail
        assert table._sorted == sorted(table.by_id)
        assert [table.by_id[i] for i in table._sorted_ids] == table._sorted

    def test_fuzz_against_dict_reference(self):
        rng = random.Random(99)
        table = _NameTable()
        reference = {}
        for step in range(6000):
            name = f"s{rng.randrange(2500):05d}"
            ident = table.intern(name)
            assert ident == reference.setdefault(name, len(reference))
            if step % 1500 == 1499:
                assert table.ordered() == sorted(reference)
        for name, ident in reference.items():
            assert table.id_of(name) == ident
            assert table.by_id[ident] == name
        assert [table.by_id[i] for i in table.ordered_ids()] == sorted(reference)


def _ids(values, value="v"):
    return sorted(_posting_ids(values[value]))


class TestPostingLayout:
    """``by_attr[attribute][value]`` through :func:`_posting_add` /
    :func:`_posting_discard`: the layout follows the cardinality."""

    def test_first_id_is_stored_inline(self):
        values = {}
        assert _posting_add(values, "v", 7) == 1
        assert values["v"] == 7 and values["v"].__class__ is int
        assert _posting_add(values, "v", 7) == 0  # set semantics
        assert _posting_discard(values, "v", 9) == -1
        assert _posting_discard(values, "v", 7) == 0
        assert "v" not in values  # an emptied posting leaves the dict

    @pytest.mark.parametrize("first,second", [(3, 8), (8, 3)])
    def test_second_distinct_id_promotes_to_an_exact_sorted_array(
        self, first, second
    ):
        values = {}
        _posting_add(values, "v", first)
        assert _posting_add(values, "v", second) == 2
        posting = values["v"]
        assert posting.__class__ is array and list(posting) == [3, 8]
        # Allocated for exactly two ids: no append slack.
        assert sys.getsizeof(posting) == sys.getsizeof(array("I", (3, 8)))
        assert _posting_add(values, "v", first) == 0

    def test_pruning_back_to_one_id_demotes_to_inline(self):
        values = {}
        for ident in (5, 6, 9):
            _posting_add(values, "v", ident)
        assert _posting_discard(values, "v", 6) == 2
        assert _posting_discard(values, "v", 4) == -1
        assert _posting_discard(values, "v", 5) == 1
        assert values["v"] == 9 and values["v"].__class__ is int

    def test_in_order_appends_stay_one_bare_array(self):
        values = {}
        for ident in range(5000):
            assert _posting_add(values, "v", ident) == ident + 1
        assert values["v"].__class__ is array
        assert list(values["v"]) == list(range(5000))

    def test_out_of_order_into_a_short_array_inserts_in_place(self):
        values = {}
        for ident in range(300, 0, -1):  # every insert is out of order
            assert _posting_add(values, "v", ident)
        assert values["v"].__class__ is array
        assert list(values["v"]) == list(range(1, 301))

    def test_out_of_order_into_a_wide_array_waits_in_a_tail(self):
        threshold = simpledb._TAIL_MERGE_THRESHOLD
        base = 10_000_000
        values = {"v": array("I", range(base, base + threshold))}
        assert _posting_add(values, "v", 5) == threshold + 1
        run = values["v"]
        assert run.__class__ is _SortedIdRun and list(run.tail) == [5]
        assert _posting_add(values, "v", 5) == 0  # found in the tail
        assert _posting_add(values, "v", base + 1) == 0  # found in main
        # In-order ids join the tail too while one is pending.
        assert _posting_add(values, "v", base + threshold) == threshold + 2
        assert values["v"] is run
        for ident in range(6, 6 + threshold - 3):
            _posting_add(values, "v", ident)
        assert values["v"] is run and len(run.tail) == threshold - 1
        _posting_add(values, "v", 1)  # the tail reaches the threshold
        merged = values["v"]
        assert merged.__class__ is array
        assert list(merged) == sorted(merged) and len(merged) == 2 * threshold

    def test_discard_settles_a_wide_run_back_to_a_bare_array(self):
        threshold = simpledb._TAIL_MERGE_THRESHOLD
        values = {"v": array("I", range(100, 100 + threshold))}
        _posting_add(values, "v", 50)
        assert values["v"].__class__ is _SortedIdRun
        assert sorted(_posting_ids(values["v"]))[:2] == [50, 100]
        assert _posting_discard(values, "v", 50) == threshold
        assert values["v"].__class__ is array
        assert list(values["v"]) == list(range(100, 100 + threshold))

    def test_fuzz_against_set_reference(self, monkeypatch):
        # A small threshold so the 20k operations cross every layout.
        monkeypatch.setattr(simpledb, "_TAIL_MERGE_THRESHOLD", 64)
        rng = random.Random(4242)
        values = {}
        reference = set()
        layouts = set()
        for _ in range(20_000):
            ident = rng.randrange(3000)
            if rng.random() < 0.3 + 0.4 * (len(reference) > 400):
                expected = len(reference) - 1 if ident in reference else -1
                got = (
                    _posting_discard(values, "v", ident)
                    if "v" in values else -1
                )
                assert got == expected
                reference.discard(ident)
            else:
                expected = 0 if ident in reference else len(reference) + 1
                assert _posting_add(values, "v", ident) == expected
                reference.add(ident)
            if reference:
                layouts.add(values["v"].__class__)
                assert _ids(values) == sorted(reference)
            else:
                assert "v" not in values
        assert layouts == {int, array, _SortedIdRun}


class TestSortedStringRun:
    def test_in_order_appends_never_allocate_a_tail(self):
        run = _SortedStringRun()
        names = [f"n{i:05d}" for i in range(1000)]
        for name in names:
            run.add(name)
        assert run._tail is None
        assert run.ordered() == names

    def test_ordered_folds_the_tail(self):
        run = _SortedStringRun()
        for name in ("m", "z", "a", "k"):  # a, k arrive out of order
            run.add(name)
        assert run._tail is not None
        assert run.ordered() == ["a", "k", "m", "z"]
        assert run._tail is None  # compacted by the read

    def test_merge_at_threshold(self):
        run = _SortedStringRun()
        run.add("zzzz")
        threshold = _SortedStringRun._THRESHOLD
        for i in range(threshold):
            run.add(f"a{i:06d}")
        assert run._tail is None  # threshold merge fired without a read
        ordered = run.ordered()
        assert ordered == sorted(ordered)
        assert len(run) == threshold + 1

    def test_discard_and_iteration(self):
        run = _SortedStringRun()
        for name in ("c", "a", "b"):
            run.add(name)
        assert run.discard("b")
        assert not run.discard("b")
        assert list(run) == ["a", "c"]

    def test_fuzz_against_sorted_reference(self):
        rng = random.Random(777)
        run = _SortedStringRun()
        reference = set()
        for _ in range(5000):
            name = f"s{rng.randrange(800):04d}"
            if rng.random() < 0.3:
                if name in reference:
                    assert run.discard(name)
                    reference.discard(name)
                else:
                    assert not run.discard(name)
            elif name not in reference:
                run.add(name)
                reference.add(name)
        assert run.ordered() == sorted(reference)


# --------------------------------------------------------------------------
# Candidate algebra in id space == the string-set answer
# --------------------------------------------------------------------------

def _algebra_items():
    """40 items, ``{name: pairs}``.  ``solo`` is unique per item (inline
    postings), ``pair`` is shared by two items (two-id arrays), ``kind``
    by ten, and two items hold a second ``kind`` value."""
    items = {}
    for i in range(40):
        pairs = [
            ("solo", f"s{i:03d}"),
            ("pair", f"p{i // 2:03d}"),
            ("kind", f"k{i % 4}"),
        ]
        if i in (5, 6):
            pairs.append(("kind", "k9"))
        items[f"it{i:03d}"] = pairs
    return items


def _algebra_state(items):
    state = _DomainState()
    for i in (17, 3, 29, 8):  # out-of-order arrivals: ids != rank
        state.add_name(f"it{i:03d}")
    for name, pairs in items.items():
        state.note_pairs(name, pairs)
    return state


def _string_set_answer(condition, items):
    """The candidate names by brute force over ``items``: an indexable
    leaf selects every item holding a matching value (``!=`` and
    non-prefix ``LIKE`` are not indexable: ``None``); ``AND`` intersects
    its indexable sides, ``OR`` needs both."""
    if isinstance(condition, _BoolOp):
        left = _string_set_answer(condition.left, items)
        right = _string_set_answer(condition.right, items)
        if condition.op == "and":
            if left is None or right is None:
                return right if left is None else left
            return left & right
        return None if left is None or right is None else left | right
    if condition.op == "!=" or condition.op == "like" and (
        condition.attribute != "itemName()" or condition.like_prefix() is None
    ):
        return None
    # A stored version is packed flat: (name, value, name, value, ...).
    return {
        name for name, pairs in items.items()
        if condition.matches(name, sum(pairs, ()))
    }


_ALGEBRA_CASES = {
    # leaves
    "eq_inline": "solo = 's007'",
    "eq_array": "pair = 'p003'",
    "eq_missing_value": "solo = 'nope'",
    "eq_missing_attribute": "ghost = 'x'",
    "in_inline_and_array": "kind in ('k9', 'k1', 'nope')",
    "in_all_inline": "solo in ('s001', 's030', 's001')",
    "name_eq_known": "itemName() = 'it017'",
    "name_eq_unknown": "itemName() = 'it999'",
    "name_in_dups_and_unknown": "itemName() in ('it003', 'it003', 'zz', 'it029')",
    "name_prefix": "itemName() like 'it01%'",
    "name_prefix_none": "itemName() like 'zz%'",
    "name_range_slice": "itemName() between 'it004' and 'it011'",
    "name_open_range": "itemName() >= 'it036'",
    "value_range_inline": "solo between 's010' and 's015'",
    "value_range_arrays": "pair < 'p003'",
    "value_range_empty": "solo > 's999'",
    # boolean nodes over every pairing of leaf collection types
    "and_tuple_array": "solo = 's006' and kind = 'k2'",
    "and_array_array": "pair = 'p003' and kind = 'k2'",
    "and_slice_set": "itemName() between 'it000' and 'it009' "
                     "and solo between 's005' and 's020'",
    "and_set_keys": "kind in ('k9', 'k0') and itemName() in ('it005', 'it004')",
    "and_one_side_unindexable": "kind != 'k1' and pair = 'p002'",
    "and_disjoint": "solo = 's001' and solo = 's002'",
    "or_tuple_array": "solo = 's001' or pair = 'p010'",
    "or_slice_keys": "itemName() like 'it00%' or itemName() = 'it039'",
    "or_unindexable": "solo = 's001' or kind != 'k0'",
    "nested": "(pair = 'p001' or pair = 'p002') and "
              "(kind = 'k2' or itemName() >= 'it004')",
}


@pytest.mark.parametrize("case", sorted(_ALGEBRA_CASES))
def test_id_space_algebra_matches_string_sets(case):
    items = _algebra_items()
    state = _algebra_state(items)
    _, condition = parse_select(
        "select * from d where " + _ALGEBRA_CASES[case]
    )
    candidates = _plan_candidates_cost(condition, state).candidates
    answer = _string_set_answer(condition, items)
    assert (None if candidates is None else state.names_of(candidates)) == (
        None if answer is None else sorted(answer)
    )


def test_value_range_limit_bails_out_in_id_space_too():
    state = _algebra_state(_algebra_items())
    # Too many distinct values, then too many items under few values.
    assert state.names_in_value_range(
        "solo", "s000", "s030", True, True, limit=10
    ) is None
    assert state.names_in_value_range(
        "kind", "k0", "k1", True, True, limit=10
    ) is None
    assert len(state.names_in_value_range(
        "kind", "k0", "k1", True, True, limit=20
    )) == 20
    assert state.names_in_name_range(
        "it000", "it020", True, True, limit=10
    ) is None


def test_wide_run_with_a_tail_reads_like_any_posting(monkeypatch):
    monkeypatch.setattr(simpledb, "_TAIL_MERGE_THRESHOLD", 8)
    state = _DomainState()
    for i in range(12):
        state.add_name(f"w{i:02d}")
    items = {f"w{i:02d}": [("kind", "wide")] for i in range(2, 12)}
    items["w00"] = [("kind", "wide")]  # out of order
    for name, pairs in items.items():
        state.note_pairs(name, pairs)
    assert state.by_attr["kind"]["wide"].__class__ is _SortedIdRun
    assert state.count_with("kind", "wide") == 11
    assert state.recount_stats() == ({"kind": 11}, {"kind": {4: 1}})
    for text in ("kind = 'wide'", "kind >= 'w'", "kind in ('wide', 'x')"):
        _, condition = parse_select("select * from d where " + text)
        assert state.names_of(
            _plan_candidates_cost(condition, state).candidates
        ) == sorted(_string_set_answer(condition, items))


def test_pages_tokens_and_bills_identical_across_stores_and_scan():
    """A three-page chain: every page's rows, next-token and billed
    bytes agree between the indexed path and the ``use_indexes=False``
    scan."""
    pages = {}
    for use_indexes in (True, False):
        account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=5)
        sdb = account.simpledb
        sdb.create_domain("d")
        items = [
            (f"pg{i:05d}", [("half", f"h{i % 2}"), ("seq", f"{i:05d}")])
            for i in range(2 * SELECT_PAGE_ITEMS + 700)
        ]
        for start in range(0, len(items), 25):
            sdb.batch_put("d", items[start : start + 25])
        sdb.use_indexes = use_indexes
        seen = []
        for expression in (
            "select * from d where itemName() between 'pg00100' and 'pg02999'",
            "select * from d where seq >= '00050' and half = 'h1'",
        ):
            token = ""
            while True:
                before = account.billing.bytes_received()
                page = account.scheduler.execute_one(
                    sdb.select_request(expression, token)
                )
                seen.append((
                    repr(page.rows), page.next_token,
                    account.billing.bytes_received() - before,
                ))
                if page.complete:
                    break
                token = page.next_token
        pages[use_indexes] = seen
    assert len(pages[True]) == 5  # 3 pages + 2 pages
    assert pages[True] == pages[False]


# --------------------------------------------------------------------------
# Frozen fingerprints on the fuzz seeds
# --------------------------------------------------------------------------

_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "select_fuzz.json").read_text()
)["digests"]


def _digest(fingerprints):
    return hashlib.sha256(repr(fingerprints).encode()).hexdigest()


def test_equivalence_battery_strict():
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=97)
    assert _digest(replay_battery(account, 97)) == _GOLDEN["strict_97"]


def test_equivalence_battery_with_deletes():
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=7)
    fingerprints = replay_battery(account, 7, deletes=True)
    assert _digest(fingerprints) == _GOLDEN["deletes_7"]


def test_equivalence_battery_under_eventual_consistency():
    """Mid-propagation, at frozen observation times."""
    fingerprints = replay_battery(
        CloudAccount(seed=131), 131, settle=1.5, frozen=True
    )
    assert _digest(fingerprints) == _GOLDEN["eventual_131"]


def test_equivalence_on_local_backend_with_reopen(tmp_path):
    """The sqlite tablestore shares this index path by subclassing: it
    must answer as frozen too, including after the indexes are rebuilt
    from stored rows on reopen."""
    def open_account():
        return CloudAccount(
            consistency=ConsistencyModel.STRICT,
            seed=23,
            backend="local",
            backend_root=str(tmp_path),
        )

    account = open_account()
    rng = random.Random(23)
    _seed_store(account.simpledb, rng)
    trees = [
        "select * from d where " + _random_tree(rng, rng.randrange(4))
        for _ in range(20)
    ]
    first = [checked_fingerprint(account, tree) for tree in trees]
    account.close()
    # Reopen the same root: domains resurrect and the derived indexes
    # are rebuilt from the sqlite rows.
    reopened = open_account()
    second = [checked_fingerprint(reopened, tree) for tree in trees]
    reopened.close()
    assert _digest([first, second]) == _GOLDEN["local_23_reopen"]


# --------------------------------------------------------------------------
# Selectivity bookkeeping: incremental stats == from-scratch recount
# --------------------------------------------------------------------------

_STAT_ATTRS = ("kind", "step", "flag")


@pytest.mark.parametrize("seed", [11, 59, 1009])
def test_stats_survive_delete_prune_reput_interleavings(seed):
    """Random put -> delete -> select (prune) -> re-put interleavings:
    after every settle point the incremental ``attr_postings`` and
    ``set_size_hist`` must equal a from-scratch recount of the live
    index sets — counts never negative, no leaked histogram buckets,
    no empty inner containers left behind."""
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=seed)
    sdb = account.simpledb
    sdb.create_domain("d")
    rng = random.Random(seed)
    names = [f"it{i:03d}" for i in range(40)]
    for step in range(300):
        action = rng.random()
        name = rng.choice(names)
        if action < 0.55:
            pairs = [
                (attr, f"{attr[0]}{rng.randrange(6)}")
                for attr in rng.sample(_STAT_ATTRS, rng.randrange(1, 4))
            ]
            sdb.put_attributes("d", name, pairs)
        elif action < 0.85:
            spec = rng.choice(
                [None, ["kind"], [("step", f"s{rng.randrange(6)}")],
                 ["flag", "step"]]
            )
            sdb.delete_attributes("d", name, spec)
        else:
            # Selects at settled time fire the pending prunes.
            account.settle(120.0)
            sdb.select("select * from d where kind = 'k1'")
        if step % 50 == 49:
            account.settle(120.0)
            sdb.select("select * from d where step > 's0'")
            state = sdb._domains["d"]
            postings, hist = state.recount_stats()
            assert state.attr_postings == postings, f"step {step}"
            assert state.set_size_hist == hist, f"step {step}"
            assert all(c > 0 for c in state.attr_postings.values())
            for attribute, inner in state.set_size_hist.items():
                assert inner, f"leaked empty histogram for {attribute!r}"
                assert all(c > 0 for c in inner.values())


# --------------------------------------------------------------------------
# Memory accounting
# --------------------------------------------------------------------------

def _populate_bare_state(state, items, singletons=False):
    """Feed a bare (service-less) domain state; keeps only interned,
    retained references so a tracemalloc delta matches what the gauge
    prices.  ``singletons`` shapes the domain like the repo benchmark's:
    two attributes with one unique value per item (every posting
    inline) beside one low-cardinality attribute."""
    for i in range(items):
        name = f"memprobe-{i:06d}"
        state.add_name(name)
        if singletons:
            pairs = (
                ("mp_kind", f"k{i % 7}"),
                ("mp_mtime", f"{1_000_000 + i:09d}"),
                ("mp_input", f"in-{i:07d}"),
            )
        else:
            pairs = (
                ("mp_kind", f"k{i % 7}"),
                ("mp_step", f"s{i % 97:04d}"),
                ("mp_blob", f"b{i:06d}"),
            )
        state.note_pairs(name, pairs)


#: gauge / tracemalloc band.  ``getsizeof`` and the allocator disagree
#: on slack (over-allocated lists, pymalloc rounding), but an accounting
#: hole cannot hide inside the band — the repo benchmark's
#: ``space_per_user_byte`` reads this gauge.
_GAUGE_BAND = (0.6, 1.5)


@pytest.mark.parametrize("items,singletons", [(3000, False), (5000, True)])
def test_memory_gauge_tracks_tracemalloc(items, singletons):
    """The accounting must land within a tolerance band of a
    tracemalloc-measured build of a known domain — a mixed one and a
    singleton-heavy one, where the gauge prices inline ids and the name
    table's id slots.  The old gauge missed the inner histogram dicts
    and the pending-unindex tuples — at 1M items that undercount would
    poison bytes-per-item, so pin it here."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        state = _DomainState()
        _populate_bare_state(state, items, singletons)
        # Park some pending-unindex entries so their tuples are priced.
        for i in range(50):
            state.schedule_unindex(
                f"memprobe-{i:06d}", [("mp_kind", f"k{i % 7}")], 1e9
            )
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    measured = after - before
    gauge = state.memory_bytes()
    assert measured > 0
    low, high = _GAUGE_BAND
    assert low * measured < gauge < high * measured, (
        f"gauge {gauge} vs tracemalloc {measured}"
    )


def test_memory_gauge_monotone_as_domain_grows():
    account = CloudAccount(seed=3)
    sdb = account.simpledb
    sdb.create_domain("d")
    last = sdb.index_memory_bytes()
    for checkpoint in range(6):
        items = [
            (
                f"grow-{checkpoint:02d}-{i:04d}",
                [("g_kind", f"k{i % 5}"), ("g_seq", f"{i:04d}")],
            )
            for i in range(500)
        ]
        for start in range(0, len(items), 25):
            sdb.batch_put("d", items[start : start + 25])
        grown = sdb.index_memory_bytes()
        assert grown > last, f"checkpoint {checkpoint}"
        last = grown


def test_inline_to_run_to_inline_round_trip():
    """One value held by one item, then two, then one again: the
    posting is promoted and demoted, and the counters, the estimate
    probe, ``selectivity()`` and the gauge follow it both ways."""
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=13)
    sdb = account.simpledb
    sdb.create_domain("d")
    state = sdb._domains["d"]

    def check(cardinality, layout):
        assert state.by_attr["tag"]["x"].__class__ is layout
        assert state.count_with("tag", "x") == cardinality
        assert sdb.index_cardinality("d", "tag", "x") == cardinality
        assert (state.attr_postings, state.set_size_hist) == (
            state.recount_stats()
        )
        selectivity = sdb.selectivity("d", "tag")
        assert selectivity.distinct_values == 1
        assert selectivity.postings == cardinality
        assert selectivity.set_size_histogram == {
            cardinality.bit_length(): 1
        }
        return sdb.index_memory_bytes()

    sdb.put_attributes("d", "first", [("tag", "x"), ("own", "1")])
    sdb.put_attributes("d", "second", [("own", "2")])
    inline = check(1, int)
    sdb.put_attributes("d", "second", [("tag", "x")])
    run = check(2, array)
    assert run > inline
    sdb.delete_attributes("d", "first", [("tag", "x")])
    queued = check(2, array)  # not pruned before the delete is visible
    assert queued > run
    account.settle(120.0)
    rows = sdb.select("select * from d where tag = 'x'")
    assert [name for name, _ in rows] == ["second"]
    assert sdb.select_stats.unindexed_pruned == 1
    # Down again (the emptied pending dict keeps its table, so not
    # all the way to the first reading).
    assert inline <= check(1, int) < queued
    assert state.by_attr["tag"]["x"] == state.names.id_of("second")


#: ``memory_bytes() / 5000`` of the dict-of-sets index store this one
#: replaced, fed the same 5000 mixed items by ``_populate_bare_state``
#: (measured on CPython 3.11 before that store was deleted; the array
#: store read 210.7 on the same run).
LEGACY_BYTES_PER_ITEM_5000 = 466.1


def test_array_store_beats_legacy_on_equal_data():
    """The array store's footprint must already be strictly below the
    dict-of-sets baseline's recorded figure at modest size (the nightly
    1M sweep charts bytes per item at scale)."""
    state = _DomainState()
    _populate_bare_state(state, 5000)
    assert state.memory_bytes() / 5000 < LEGACY_BYTES_PER_ITEM_5000
