"""Property-based WHERE-tree fuzzing: planner == scan on random trees.

No hypothesis dependency — a seeded ``random.Random`` generates the
condition trees, so every failure replays bit-for-bit from its seed.
Each tree mixes every shape the grammar allows (``=``, ``!=``, ``IN``,
``LIKE``, the ordered comparisons, ``BETWEEN``, AND/OR with parens; the
grammar has no NOT — ``!=`` is its negation form) over a seeded
provenance-shaped store, and the cost-based planner must agree with the
``use_indexes=False`` scan — rows, row order, and billing byte-identical
on every tree, in every battery (strict, mid-propagation eventual
consistency, and with deletes interleaved).  The same batteries are
replayed against digests frozen in ``tests/golden/select_fuzz.json``.
"""

import random

from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.simpledb import prepare_select

#: Trees per battery; the acceptance floor is >= 200 random trees.
TREE_COUNT = 220

_ATTRIBUTES = ("type", "name", "version", "mtime", "tag")
_VALUES = {
    "type": ["proc", "file", "pipe"],
    "name": [f"obj-{i}" for i in range(6)],
    "version": [f"{i:03d}" for i in range(8)],
    "mtime": [f"{100 + 7 * i:06d}" for i in range(20)],
    "tag": ["a", "b", "c", "zz"],
}


def _seed_store(sdb, rng):
    sdb.create_domain("d")
    items = []
    for i in range(60):
        name = f"u{i // 3:03d}_{i % 3}"
        pairs = [
            ("type", rng.choice(_VALUES["type"])),
            ("version", f"{i % 3:03d}"),
            ("mtime", f"{100 + rng.randrange(150):06d}"),
        ]
        if rng.random() < 0.8:
            pairs.append(("name", rng.choice(_VALUES["name"])))
        # Multi-valued attributes: several tags on some items.
        for _ in range(rng.randrange(3)):
            pairs.append(("tag", rng.choice(_VALUES["tag"])))
        items.append((name, pairs))
    for start in range(0, len(items), 25):
        sdb.batch_put("d", items[start : start + 25])


def _random_value(rng, attribute):
    pool = _VALUES.get(attribute, ["x"])
    if rng.random() < 0.15:
        return rng.choice(["", "zzz", "000", rng.choice(pool) + "!"])
    return rng.choice(pool)


def _random_comparison(rng):
    if rng.random() < 0.2:
        attribute = "itemName()"
        pool = [f"u{i:03d}_{v}" for i in range(20) for v in range(3)]
    else:
        attribute = rng.choice(_ATTRIBUTES)
        pool = None
    op = rng.choice(
        ("=", "!=", "<", "<=", ">", ">=", "between", "in", "like")
    )
    def value():
        if pool is not None:
            return rng.choice(pool)
        return _random_value(rng, attribute)
    if op == "between":
        low, high = value(), value()
        if rng.random() < 0.8 and low > high:
            low, high = high, low  # keep most ranges non-empty
        return f"{attribute} between '{low}' and '{high}'"
    if op == "in":
        values = ", ".join(
            f"'{value()}'" for _ in range(rng.randrange(1, 4))
        )
        return f"{attribute} in ({values})"
    if op == "like":
        base = value()
        pattern = rng.choice(
            [base + "%", base[:2] + "%", "%" + base[-2:], base, "%%"]
        )
        return f"{attribute} like '{pattern}'"
    return f"{attribute} {op} '{value()}'"


def _random_tree(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _random_comparison(rng)
    op = rng.choice(("and", "or"))
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if rng.random() < 0.5:
        return f"({left}) {op} ({right})"
    return f"{left} {op} {right}"


def _fingerprint(account, sdb, expression, frozen=False):
    """One select chain's (rows, Select ops, billed bytes); tolerant of
    an account that has billed no SimpleDB operation yet (a reopened
    store serves its first request from resurrected state)."""
    ops_before = account.billing.snapshot().get("simpledb", {}).get("Select", 0)
    bytes_before = account.billing.bytes_received()
    if frozen:
        rows = _select_frozen(account, sdb, expression)
    else:
        rows = sdb.select(expression)
    return (
        repr(rows),
        account.billing.snapshot()["simpledb"]["Select"] - ops_before,
        account.billing.bytes_received() - bytes_before,
    )


def _select_frozen(account, sdb, expression):
    """Run a select chain without advancing the virtual clock, so the
    indexed and scan runs of one tree observe the *same* time.  (A
    normal select pays read latency; mid-propagation, that skew alone
    can legitimately change which writes are visible between the two
    runs — the equivalence contract is per observation time.)"""
    prepared = prepare_select(expression)
    rows = []
    token = ""
    while True:
        page = account.scheduler.execute_batch(
            [sdb.select_request(prepared, token)], 1, advance_clock=False
        ).results[0]
        rows.extend(page.rows)
        if page.complete:
            return rows
        token = page.next_token


def checked_fingerprint(account, expression, frozen=False):
    """One tree's indexed fingerprint, asserted equal to the
    ``use_indexes=False`` scan's — the one oracle."""
    sdb = account.simpledb
    sdb.use_indexes = True
    indexed = _fingerprint(account, sdb, expression, frozen)
    sdb.use_indexes = False
    scanned = _fingerprint(account, sdb, expression, frozen)
    sdb.use_indexes = True
    assert indexed == scanned, expression
    return indexed


def replay_battery(account, seed, deletes=False, settle=0.0, frozen=False):
    """Seed the store from ``seed`` and run :data:`TREE_COUNT` random
    trees, each checked against the scan; returns the indexed
    fingerprints.  ``deletes`` sprinkles DeleteAttributes between trees
    (pruning interleaves with planning); ``settle`` advances the clock
    every 20 trees, so with ``frozen`` selects the trees run
    mid-propagation."""
    rng = random.Random(seed)
    sdb = account.simpledb
    _seed_store(sdb, rng)
    out = []
    for index in range(TREE_COUNT):
        expression = "select * from d where " + _random_tree(
            rng, rng.randrange(4)
        )
        if settle and index % 20 == 0:
            account.settle(settle)
        if deletes and index % 25 == 10:
            victim = f"u{rng.randrange(20):03d}_{rng.randrange(3)}"
            spec = rng.choice(
                [None, ["tag"], [("version", f"{rng.randrange(3):03d}")]]
            )
            sdb.delete_attributes("d", victim, spec)
        out.append(checked_fingerprint(account, expression, frozen))
    return out


def test_fuzz_trees_strict_consistency():
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=97)
    replay_battery(account, seed=97)
    # The generator actually exercises both planner outcomes (every
    # tree's scan leg adds one scanned chain; the rest are the planner's).
    stats = account.simpledb.select_stats
    assert stats.indexed > 50
    assert stats.scanned - TREE_COUNT > 10


def test_fuzz_trees_under_eventual_consistency():
    """The same battery while writes are still propagating: every tree
    must agree whatever visibility subset the store is in."""
    replay_battery(CloudAccount(seed=131), seed=131, settle=1.5, frozen=True)


def test_fuzz_trees_second_seed_with_deletes():
    """A different seed, with a sprinkle of DeleteAttributes between
    trees so pruning interleaves with planning."""
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=7)
    replay_battery(account, seed=7, deletes=True)
