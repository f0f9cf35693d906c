"""The store fingerprint: frozen digests, memory, and reads.

``store_fingerprint`` is how the differential matrix, the chaos harness
and P3's recovery tests say "these two stores hold the same thing".
The digests below were recorded before the fingerprint was made to
stream; any change to what it renders, in what order, or how it joins
and encodes the lines, changes them.
"""

import tracemalloc

import pytest

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.consistency import VersionedRegister
from repro.cloud.simpledb import _Histories
from repro.core import PAS3fs, ProtocolP3, collect
from repro.provenance.syscalls import TraceBuilder
from repro.service import IngestGateway, ShardRouter
from repro.workloads.base import MOUNT
from repro.workloads.fleet import make_fleet, run_fleet

EMPTY = "8d97d3ab75d7d71891b7a0e57eba30540b2849f8"
GATEWAY = "65966850fc3685b3661a0e329d8526f122467b3b"
CRAFTED = "a54b2c7a916156e3815b3d99d546289d9ce95658"
P3_PENDING = "e42ddb7a01f2246041ad3b096466b8e370292b82"


def _account(backend, tmp_path, seed=3):
    if backend == "local":
        return CloudAccount(seed=seed, backend="local", backend_root=str(tmp_path))
    return CloudAccount(seed=seed)


def _gateway_store(account, clients=8, files_per_client=4, extra_attributes=3):
    fleet = make_fleet(
        clients=clients,
        files_per_client=files_per_client,
        extra_attributes=extra_attributes,
        seed=1,
    )
    run_fleet(account, IngestGateway(account, router=ShardRouter(shards=4)), fleet)
    account.settle(120.0)
    return account


def _crafted_store(account):
    """Overwritten-then-deleted key, an item stripped of every attribute,
    an empty bucket, and values that need quoting or are not ASCII."""
    s3, sdb = account.s3, account.simpledb
    s3.create_bucket("data")
    s3.create_bucket("empty")
    s3.put("data", "gone", Blob.from_text("first"))
    s3.put("data", "gone", Blob.from_text("second"), {"v": "2"})
    s3.delete("data", "gone")
    s3.put(
        "data",
        "odd/ké y",
        Blob.from_text("naïve\n\"quoted\" 'single'"),
        {"note": "it's \"so\"\nline two", "lang": "日本語"},
    )
    s3.put("data", "plain", Blob.synthetic(4096, "plain"), {"a": "1"})
    sdb.create_domain("prov")
    sdb.create_domain("spare")
    sdb.put_attributes(
        "prov",
        "odd'item\"",
        [("quote", "it's"), ("quote", 'say "hi"'), ("nl", "a\nb"), ("uni", "ü→∑")],
    )
    sdb.put_attributes("prov", "stripped", [("a", "1"), ("b", "2"), ("b", "3")])
    sdb.delete_attributes("prov", "stripped", ["a", "b"])
    sdb.put_attributes("prov", "dropped", [("x", "y")])
    sdb.delete_attributes("prov", "dropped")
    sdb.put_attributes("prov", "kept", [("type", "file"), ("name", "/tmp/x")])
    account.settle(120.0)
    return account


def _p3_pending():
    """A P3 upload whose WAL still holds every transaction: no daemon ran."""
    account = CloudAccount(seed=5)
    protocol = ProtocolP3(account)
    builder = TraceBuilder()
    writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
    for index in range(4):
        builder.write_close(writer, f"{MOUNT}group/f{index}.dat", 8 * 1024)
    builder.exit(writer)
    PAS3fs(account, protocol).run(collect(builder.trace))
    account.settle(60.0)
    assert account.sqs.pending_count(protocol.queue_url) == 4
    return account, protocol


class TestFrozenDigests:
    def test_empty_account(self):
        assert store_fingerprint(CloudAccount(seed=3)) == EMPTY

    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_gateway_store(self, backend, tmp_path):
        account = _gateway_store(_account(backend, tmp_path))
        try:
            assert store_fingerprint(account) == GATEWAY
        finally:
            account.close()

    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_crafted_store(self, backend, tmp_path):
        account = _crafted_store(_account(backend, tmp_path))
        try:
            assert store_fingerprint(account) == CRAFTED
        finally:
            account.close()

    def test_p3_with_pending_messages(self):
        account, protocol = _p3_pending()
        digest = store_fingerprint(account, queue_urls=[protocol.queue_url])
        assert digest == P3_PENDING


class TestOneValueChangesTheDigest:
    """Each mutation touches one value of the crafted store."""

    def _mutated(self, mutate):
        account = _crafted_store(CloudAccount(seed=3))
        mutate(account)
        account.settle(120.0)
        return store_fingerprint(account)

    def test_attribute_value(self):
        digest = self._mutated(
            lambda a: a.simpledb.put_attributes(
                "prov", "kept", [("name", "/tmp/y")], replace=True
            )
        )
        assert digest != CRAFTED

    def test_blob_digest(self):
        digest = self._mutated(
            lambda a: a.s3.put(
                "data", "plain", Blob.synthetic(4096, "other"), {"a": "1"}
            )
        )
        assert digest != CRAFTED

    def test_s3_metadata_value(self):
        digest = self._mutated(
            lambda a: a.s3.put(
                "data", "plain", Blob.synthetic(4096, "plain"), {"a": "2"}
            )
        )
        assert digest != CRAFTED

    def test_pending_depth(self):
        account, protocol = _p3_pending()
        (message,) = account.sqs.receive_messages(protocol.queue_url, max_messages=1)
        account.sqs.delete_message(protocol.queue_url, message.receipt_handle)
        digest = store_fingerprint(account, queue_urls=[protocol.queue_url])
        assert digest != P3_PENDING


#: Transient heap a fingerprint may take above the live store.  It holds
#: one sorted list of item names or keys and one rendered line at a
#: time; rendering the whole store first took about 3.4 KB per item.
MEMORY_BOUND = 128 * 1024


def test_fingerprint_memory_is_bounded():
    account = _gateway_store(
        CloudAccount(seed=3), clients=16, files_per_client=16, extra_attributes=24
    )
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        store_fingerprint(account)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live < MEMORY_BOUND


class TestOneReadPerItem:
    def test_sim_reads_each_register_once(self, monkeypatch):
        account = _gateway_store(CloudAccount(seed=3))
        calls = []
        read = VersionedRegister.read_latest_committed
        read_item = _Histories.read

        def counted(register, at):
            calls.append(id(register))
            return read(register, at)

        def counted_item(histories, ident, at, model):
            calls.append((id(histories), ident))
            return read_item(histories, ident, at, model)

        monkeypatch.setattr(VersionedRegister, "read_latest_committed", counted)
        monkeypatch.setattr(_Histories, "read", counted_item)
        store_fingerprint(account)
        stored = sum(
            len(state.histories) for state in account.simpledb._domains.values()
        ) + sum(len(objects) for objects in account.s3._buckets.values())
        assert len(calls) == stored
        assert len(set(calls)) == stored

    def test_local_issues_one_statement_per_item(self, tmp_path, monkeypatch):
        from repro.backends.local.blobstore import FsObjectRegister

        account = _gateway_store(_account("local", tmp_path))
        try:
            items = sum(
                len(account.simpledb.peek_item_names(domain))
                for domain in account.simpledb._domains
            )
            keys = sum(
                len(account.s3.peek_keys(bucket)) for bucket in account.s3._buckets
            )
            loads = []
            load = FsObjectRegister._load

            def counted(register):
                loads.append(register)
                return load(register)

            monkeypatch.setattr(FsObjectRegister, "_load", counted)
            statements = []
            account.simpledb._conn.set_trace_callback(statements.append)
            store_fingerprint(account)
            account.simpledb._conn.set_trace_callback(None)
            assert len(statements) <= items + len(account.simpledb._domains)
            assert len(loads) == keys
        finally:
            account.close()
