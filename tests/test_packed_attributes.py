"""The packed layout of a stored SimpleDB version.

Every stored version keeps its attributes as one flat ``(name, value,
name, value, ...)`` tuple; dicts of lists are built only at the API
boundary (select rows, GetAttributes, ``peek_item``).  The local
backend stores the same tuple, as a compact JSON array per row with
each attribute name as its id in the domain's dictionary.  These
tests pin that the layout is invisible from outside — the same rows,
value order and response bytes as a plain dict-of-lists model, and the
packed model's text on disk — and that it is as small as it was made to
be.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import repro
from repro.cloud import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.simpledb import _attributes_size, _pack, _unpack

_ATTRIBUTES = st.dictionaries(
    st.text(max_size=6),
    st.lists(st.text(max_size=6), min_size=1, max_size=4),
    max_size=6,
)


def _dict_size(attributes):
    """Response bytes as the dict-of-lists layout priced them: each
    attribute's name once, plus every value."""
    return sum(len(a) + sum(map(len, vals)) for a, vals in attributes.items())


@given(_ATTRIBUTES)
def test_pack_round_trip_keeps_attribute_and_value_order(attributes):
    packed = _pack(attributes)
    assert list(_unpack(packed).items()) == list(attributes.items())
    assert _attributes_size(packed) == _dict_size(attributes)


def _apply_put(model, item, pairs, replace):
    current = model.setdefault(item, {})
    if replace:
        for attribute, _ in pairs:
            current.pop(attribute, None)
    for attribute, value in pairs:
        values = current.setdefault(attribute, [])
        if value not in values:
            values.append(value)


def _apply_delete(model, item, attribute, value):
    current = model.get(item, {})
    values = current.get(attribute, [])
    if value in values:
        values.remove(value)
    if not values:
        current.pop(attribute, None)
    if not current:
        model.pop(item, None)


def _stored_row(sdb, domain, item):
    """The item's latest row text, and the domain's attribute-name
    dictionary (id -> name) it is coded against."""
    conn = sdb._conn
    ((domain_id,),) = conn.execute(
        "SELECT id FROM sdb_domains WHERE name = ?", (domain,)
    )
    (text,) = conn.execute(
        "SELECT attrs FROM sdb_versions WHERE domain = ? AND item = ?"
        " ORDER BY seq DESC LIMIT 1",
        (domain_id, item),
    ).fetchone()
    names = dict(
        conn.execute(
            "SELECT id, name FROM sdb_attribute_names WHERE domain = ?",
            (domain_id,),
        )
    )
    return text, names


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_seeded_writes_match_a_dict_of_lists_model(backend, tmp_path):
    """Seeded put / ``replace=True`` put / delete-``(attr, value)`` /
    re-put / same-item-twice batch put sequences: every read equals the
    model — value order included — and bills the model's bytes; on
    local, the row on disk is the compact JSON of the packed model with
    each attribute name as its dictionary id, and decodes to exactly the
    packed model."""
    account = CloudAccount(
        consistency=ConsistencyModel.STRICT,
        seed=11,
        backend=backend,
        backend_root=str(tmp_path / "root") if backend == "local" else None,
    )
    sdb = account.simpledb
    usage = account.billing.usage["simpledb"]
    sdb.create_domain("d")
    rng = random.Random(2010)
    names = [f"item-{n}" for n in range(4)]
    attributes = ["a", "bb", "ccc"]
    values = ["x", "yy", "zzz", "w"]
    model = {}
    try:
        for _step in range(160):
            item = rng.choice(names)
            roll = rng.random()
            if roll < 0.25 and item in model:
                # Re-put pairs the item already holds: a no-op by value.
                held = [(a, v) for a, vals in model[item].items() for v in vals]
                pairs = rng.sample(held, min(len(held), 2))
                sdb.put_attributes("d", item, pairs)
                _apply_put(model, item, pairs, replace=False)
            elif roll < 0.45 and item in model:
                attribute = rng.choice(list(model[item]))
                value = rng.choice(model[item][attribute])
                sdb.delete_attributes("d", item, [(attribute, value)])
                _apply_delete(model, item, attribute, value)
            elif roll > 0.9:
                # The item twice in one BatchPut: both versions commit at
                # the same time, and every read must see the later one.
                puts = [
                    [(rng.choice(attributes), rng.choice(values))]
                    for _ in range(2)
                ]
                sdb.batch_put("d", [(item, pairs) for pairs in puts], replace=True)
                for pairs in puts:
                    _apply_put(model, item, pairs, replace=True)
            else:
                replace = roll > 0.8
                pairs = [
                    (rng.choice(attributes), rng.choice(values))
                    for _ in range(rng.randrange(1, 4))
                ]
                sdb.put_attributes("d", item, pairs, replace=replace)
                _apply_put(model, item, pairs, replace)
            if backend == "local" and item in model:
                text, names = _stored_row(sdb, "d", item)
                codes = {name: code for code, name in names.items()}
                packed = _pack(model[item])
                coded = [
                    codes[t] if i % 2 == 0 else t for i, t in enumerate(packed)
                ]
                assert text == json.dumps(coded, separators=(",", ":"))
                decoded = json.loads(text)
                decoded[::2] = [names[code] for code in decoded[::2]]
                assert tuple(decoded) == packed
            before = usage.bytes_out
            got = sdb.get_attributes("d", item)
            assert list(got.items()) == list(model.get(item, {}).items())
            assert usage.bytes_out - before == _dict_size(model.get(item, {}))
            before = usage.bytes_out
            rows = sdb.select("select * from d")
            expected = sorted(model.items())
            assert [(n, list(a.items())) for n, a in rows] == [
                (n, list(a.items())) for n, a in expected
            ]
            assert usage.bytes_out - before == sum(
                len(n) + _dict_size(a) for n, a in expected
            )
            assert sdb.select("select * from d where bb = 'yy'") == [
                (n, a) for n, a in expected if "yy" in a.get("bb", [])
            ]
    finally:
        account.close()


#: Bytes per item the stored versions of a 5-pair domain build may
#: hold.  Measured on CPython 3.11 as the window's build less the index
#: gauge: 854 B/item with a dataclass-with-dict version holding a dict
#: of lists in a list history; 238 B/item with a slotted version holding
#: a packed tuple in a tuple history; 191 B/item with values interned
#: process-wide and each register's one version in a 1-tuple; 143 B/item
#: (156 on 3.10, 164 on 3.12) with the values shared through the value
#: tables and a one-version register bare; 143 → 83 B/item (3.10: 156 →
#: 86, 3.12: 164 → 104) with each item's history in a list indexed by
#: its id.  That reading subtracted strings the test built before its
#: window, which the gauge prices, so it read low.  What dropping the
#: histories frees counts the stored versions alone: 217 B/item with a
#: ``WriteVersion`` and its ``visible_at`` float per item, 149 B/item
#: with the last-committed version in id-indexed columns, 120 of them
#: the 10-slot packed tuple (3.10, 3.11 and 3.12 alike).  The bound
#: keeps the 16 B of headroom.
_VERSION_BYTES_PER_ITEM = 165


def _footprint_items(items_n):
    """``items_n`` items shaped like the select-read-sim workload's."""
    rng = random.Random(7)
    items = []
    for i in range(items_n):
        obj, version = divmod(i, 4)
        pairs = [
            ("type", "proc" if rng.random() < 0.04 else "file"),
            ("name", f"prog-{rng.randrange(50):05d}"),
            ("version", f"{version:04d}"),
            ("mtime", f"{1_000_000 + i:09d}"),
            ("input", f"u{max(0, obj - 1 - rng.randrange(8)):07d}_{version}"),
        ]
        items.append((f"u{obj:07d}_{version}", pairs))
    return items


def _free_list_fodder():
    """2 000 tuples of each size CPython keeps free lists of (1-19) and
    200 floats.  Held across a ``tracemalloc`` window, they keep those
    lists empty, so that nothing the window counts comes off one;
    dropped inside it, they fill them, so that the tuples and floats
    freed next return their memory where ``tracemalloc`` sees it."""
    return [tuple(range(i % 19 + 1)) for i in range(19 * 2000)] + [
        float(i) + 0.5 for i in range(200)
    ]


def _stored_versions_bytes(items, rewrites=()):
    """Build a domain from ``items``, then put ``rewrites``; returns
    ``store_memory_bytes()`` and the bytes ``tracemalloc`` saw freed when
    the domain's histories were dropped after it: the stored versions
    alone.  Their strings stay alive (the caller and the index hold
    them), and nothing else lets go of anything."""
    account = CloudAccount(seed=1)
    sdb = account.simpledb
    sdb.create_domain("d")
    state = sdb._domains["d"]
    held = _free_list_fodder()
    tracemalloc.start()
    try:
        for start in range(0, len(items), 25):
            sdb.batch_put("d", items[start : start + 25])
        for start in range(0, len(rewrites), 25):
            sdb.batch_put("d", rewrites[start : start + 25])
        gauge = sdb.store_memory_bytes()
        _free_list_fodder()
        built, _ = tracemalloc.get_traced_memory()
        state.histories = None
        dropped, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held
    return gauge, built - dropped


def test_stored_versions_footprint_per_item():
    """A ``tracemalloc`` window over a 5 000-item build whose strings
    the test built (and holds) beforehand, measuring what dropping the
    histories frees.

    The service interns attribute names only (source literals here,
    interned already) and shares each value through its value table, so
    the interpreter's interned-string table cannot grow (and, depending
    on how many strings earlier tests interned, resize) inside the
    window."""
    items_n = 5000
    _, stored = _stored_versions_bytes(_footprint_items(items_n))
    per_item = stored / items_n
    assert 0 < per_item < _VERSION_BYTES_PER_ITEM, f"{per_item:.0f} B/item"


#: The directory ``repro`` is imported from, for the child interpreter.
_SRC = os.path.dirname(os.path.abspath(list(repro.__path__)[0]))


def _run_fresh(body, *argv):
    """Run ``body`` in a fresh interpreter with a fixed hash seed: the
    caller's ``PYTHONHASHSEED``, else 0; ``sys.argv[1]`` is this
    directory, then ``argv``."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body), os.path.dirname(__file__),
         *argv],
        env=dict(
            os.environ,
            PYTHONPATH=_SRC,
            PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_footprint_window_ignores_strings_interned_before_it():
    """The footprint test in a fresh interpreter (fixed hash seed) after
    10 000 unrelated strings were interned — as earlier tests in one
    tier-1 process do.  At that count the interned-string table resized
    inside the window while the service interned every value it stored,
    and the test read 576 B/item."""
    _run_fresh(
        """
        import sys
        padding = [sys.intern(f"pad-{i}") for i in range(int(sys.argv[2]))]
        sys.path.insert(0, sys.argv[1])
        from test_packed_attributes import test_stored_versions_footprint_per_item
        test_stored_versions_footprint_per_item()
        """,
        "10000",
    )


def check_store_gauge():
    """``store_memory_bytes()`` within 0.85-1.15x of what dropping the
    histories frees, every tenth item rewritten so that the earlier
    versions are priced too (it reads 1.001 on CPython 3.10-3.12)."""
    items = _footprint_items(5000)
    rewrites = [(name, [("seen", "1")]) for name, _ in items[::10]]
    gauge, measured = _stored_versions_bytes(items, rewrites)
    assert 0.85 * measured < gauge < 1.15 * measured, (gauge, measured)


def test_store_gauge_tracks_tracemalloc():
    _run_fresh(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        from test_packed_attributes import check_store_gauge
        check_store_gauge()
        """
    )
