"""Seeded property-based round-trips for the wire formats.

The WAL messages, the provenance-record encoding and the SimpleDB item
format are the formats that cross a process boundary (SQS bodies, S3
provenance objects, SimpleDB items with their S3 spills); until now only
end-to-end paths exercised them, on friendly inputs.  These tests
generate adversarial records from fixed seeds — pipes, backslashes,
newlines, carriage returns, unicode, empty values — and pin the
properties the formats must hold:

- decode(encode(x)) reconstructs x exactly (values, xref-ness, order),
- encode(decode(encode(x))) is byte-identical to encode(x) — the
  canonical-form property the differential matrix leans on when it
  compares store fingerprints across backends,
- an item plan read back through the spills it PUTs gives every
  record's value under its attribute, in record order, whatever the
  values look like.
"""

import random
import string

import pytest

from repro.cloud.account import CloudAccount
from repro.core.sdb_items import build_item_plan, resolve_attributes, spill_keys
from repro.core.wal_messages import (
    HEADER_RESERVE,
    DataManifestEntry,
    build_messages,
    parse_message,
)
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.serialization import (
    decode_record,
    decode_records,
    encode_record,
    encode_records,
)

#: Characters chosen to stress the escaping: the field separator, the
#: escape character itself, line separators, spacing, and unicode.
NASTY = "|\\\n\r\t του←🦉 " + string.ascii_letters + string.digits + "_-./:%"


def _random_text(rng: random.Random, max_len: int = 24) -> str:
    return "".join(
        rng.choice(NASTY) for _ in range(rng.randrange(0, max_len))
    )


def _random_ref(rng: random.Random) -> NodeRef:
    # uuids stay in the identifier alphabet (real uuids do too); the
    # version is what str/parse round-trips through "uuid_version".
    uuid = "".join(
        rng.choice(string.ascii_lowercase + string.digits + "-")
        for _ in range(rng.randrange(1, 12))
    )
    return NodeRef(uuid, rng.randrange(0, 500))


def _random_record(rng: random.Random) -> ProvenanceRecord:
    subject = _random_ref(rng)
    attribute = "".join(
        rng.choice(string.ascii_lowercase + "_") for _ in range(rng.randrange(1, 10))
    )
    if rng.random() < 0.3:
        return ProvenanceRecord(subject, attribute, _random_ref(rng))
    return ProvenanceRecord(subject, attribute, _random_text(rng))


def _random_records(seed: int, count: int = 60):
    rng = random.Random(seed)
    return [_random_record(rng) for _ in range(count)]


@pytest.mark.parametrize("seed", [11, 97, 2024])
class TestRecordRoundTrip:
    def test_decode_reconstructs_the_record(self, seed):
        for record in _random_records(seed):
            back = decode_record(encode_record(record))
            assert back == record
            assert back.is_xref == record.is_xref

    def test_reencode_is_byte_identical(self, seed):
        for record in _random_records(seed):
            wire = encode_record(record)
            assert encode_record(decode_record(wire)) == wire

    def test_batch_roundtrip_preserves_order_and_bytes(self, seed):
        records = _random_records(seed)
        wire = encode_records(records)
        back = decode_records(wire)
        assert back == records
        assert encode_records(back) == wire


@pytest.mark.parametrize("seed", [11, 97, 2024])
class TestWalMessageRoundTrip:
    def _random_entries(self, seed):
        rng = random.Random(seed * 7 + 1)
        return [
            DataManifestEntry(
                final_key=f"files/dir{rng.randrange(9)}/f{i}.dat",
                uuid=_random_ref(rng).uuid,
                version=rng.randrange(0, 99),
                tmp_key=f"tmp/{i}-{rng.randrange(1 << 20):05x}",
                size=rng.randrange(0, 1 << 24),
                digest=f"{rng.getrandbits(160):040x}",
            )
            for i in range(rng.randrange(1, 8))
        ]

    def test_manifest_entry_roundtrip(self, seed):
        for entry in self._random_entries(seed):
            wire = entry.encode()
            back = DataManifestEntry.decode(wire)
            assert back == entry
            assert back.encode() == wire

    def test_messages_roundtrip_through_parse(self, seed):
        records = _random_records(seed)
        entries = self._random_entries(seed)
        messages = build_messages("txn-rt", entries, records)
        parsed = [parse_message(body) for body in messages]
        assert [p.seq for p in parsed] == list(range(len(messages)))
        assert {p.total for p in parsed} == {len(messages)}
        assert {p.txn_id for p in parsed} == {"txn-rt"}
        got_entries = [e for p in parsed for e in p.data_entries]
        got_records = [r for p in parsed for r in p.records]
        assert got_entries == entries
        assert got_records == records

    def test_rebuild_from_parse_is_byte_identical(self, seed):
        records = _random_records(seed)
        entries = self._random_entries(seed)
        messages = build_messages("txn-rt", entries, records)
        parsed = [parse_message(body) for body in messages]
        rebuilt = build_messages(
            "txn-rt",
            [e for p in parsed for e in p.data_entries],
            [r for p in parsed for r in p.records],
        )
        assert rebuilt == messages

    def test_every_message_respects_the_sqs_limit(self, seed):
        records = _random_records(seed, count=400)
        messages = build_messages("txn-rt", [], records, limit_bytes=1024)
        assert len(messages) > 1
        for body in messages:
            assert len(body.encode("utf-8")) <= 1024
        roundtrip = [r for body in messages for r in parse_message(body).records]
        assert roundtrip == records

    def test_header_reserve_is_positive(self, seed):
        del seed
        assert HEADER_RESERVE > 0


def _random_value(rng: random.Random):
    """A record value of one of the shapes the item format treats apart:
    short text, text of 1-3 KB (spilled inline, or encoded into the
    overflow object), text that looks like a spill pointer, a node
    reference."""
    shape = rng.random()
    if shape < 0.15:
        return "".join(rng.choice(NASTY) for _ in range(rng.randrange(1000, 3000)))
    if shape < 0.3:
        return "s3-spill:" + rng.choice(["", "files/secret", _random_text(rng)])
    if shape < 0.45:
        return _random_ref(rng)
    return _random_text(rng)


def _random_item_bundle(seed: int) -> ProvenanceBundle:
    """One object's bundle over one to three versions, each of up to 300
    records (past the 255 pairs an item keeps inline)."""
    rng = random.Random(seed)
    uuid = _random_ref(rng).uuid
    bundle = ProvenanceBundle(uuid=uuid)
    attributes = ["input", "type", "note", "overflow", "env"]
    for version in range(rng.randrange(1, 4)):
        count = rng.choice([1, rng.randrange(2, 40), 300])
        for _ in range(count):
            bundle.add(ProvenanceRecord(
                NodeRef(uuid, version), rng.choice(attributes), _random_value(rng)
            ))
    return bundle


@pytest.mark.parametrize("seed", range(20))
def test_item_plan_resolves_back_to_the_bundle(seed):
    bundle = _random_item_bundle(seed)
    account = CloudAccount(seed=seed)
    account.s3.create_bucket("b")
    plan = build_item_plan([bundle], account.s3, "b")
    for request in plan.spill_requests:
        request.apply(0.0, 0.0)
    expected = {}
    for record in bundle.records:
        values = expected.setdefault(str(record.subject), {})
        values.setdefault(record.attribute, []).append(record.value_text())
    assert [name for name, _ in plan.items] == sorted(expected, key=NodeRef.parse)
    for name, pairs in plan.items:
        assert len(pairs) <= 256
        attributes = {}
        for attribute, value in pairs:
            attributes.setdefault(attribute, []).append(value)
        texts = {
            key: account.s3.peek_latest("b", key).blob.text()
            for key in spill_keys(attributes)
        }
        assert resolve_attributes(attributes, texts) == expected[name]
