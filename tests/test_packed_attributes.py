"""The packed layout of a stored SimpleDB version.

Every stored version keeps its attributes as one flat ``(name, value,
name, value, ...)`` tuple; dicts of lists are built only at the API
boundary (select rows, GetAttributes, ``peek_item``).  The local
backend stores the same tuple, as a compact JSON array per row.  These
tests pin that the layout is invisible from outside — the same rows,
value order and response bytes as a plain dict-of-lists model, and the
packed model's text on disk — and that it is as small as it was made to
be.
"""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.cloud import CloudAccount
from repro.cloud.consistency import ConsistencyModel, WriteVersion
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
    version = WriteVersion(packed, 0.0, 0.0)
    assert _attributes_size(version) == _dict_size(attributes)


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


def _stored_attrs_text(sdb, domain, item):
    (text,) = sdb._conn.execute(
        "SELECT attrs FROM sdb_versions WHERE domain = ? AND item = ?"
        " ORDER BY seq DESC LIMIT 1",
        (domain, item),
    ).fetchone()
    return text


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_seeded_writes_match_a_dict_of_lists_model(backend, tmp_path):
    """Seeded put / ``replace=True`` put / delete-``(attr, value)`` /
    re-put sequences: every read equals the model — value order
    included — and bills the model's bytes; on local, the row on disk is
    the compact JSON of the packed model."""
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
            else:
                replace = roll > 0.8
                pairs = [
                    (rng.choice(attributes), rng.choice(values))
                    for _ in range(rng.randrange(1, 4))
                ]
                sdb.put_attributes("d", item, pairs, replace=replace)
                _apply_put(model, item, pairs, replace)
            if backend == "local" and item in model:
                assert _stored_attrs_text(sdb, "d", item) == json.dumps(
                    _pack(model[item]), separators=(",", ":")
                )
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


#: Bytes per item a 5-pair domain build may hold beyond what the index
#: gauge prices — the stored versions, their registers and the registry.
#: Measured on CPython 3.11: 854 B/item with a dataclass-with-dict
#: version holding a dict of lists in a list history; 238 B/item with a
#: slotted version holding a packed tuple in a tuple history.
_VERSION_BYTES_PER_ITEM = 400


def test_stored_versions_footprint_per_item():
    """A tracemalloc delta over a 5 000-item build whose strings the
    test built (and holds) beforehand, so what is counted is the
    service's own structures; subtracting ``index_memory_bytes()``
    leaves the per-version layout."""
    items_n = 5000
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
    account = CloudAccount(seed=1)
    sdb = account.simpledb
    sdb.create_domain("d")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for start in range(0, items_n, 25):
            sdb.batch_put("d", items[start : start + 25])
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_item = (after - before - sdb.index_memory_bytes()) / items_n
    assert 0 < per_item < _VERSION_BYTES_PER_ITEM, f"{per_item:.0f} B/item"
