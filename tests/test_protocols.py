"""Tests for the three storage protocols (P1, P2, P3)."""

import pytest

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.consistency import ConsistencyModel
from repro.core import (
    PAS3fs,
    ProtocolP1,
    ProtocolP2,
    ProtocolP3,
    UploadMode,
)
from repro.core.protocol_base import FlushWork, data_key, provenance_object_key
from repro.core.sdb_items import build_item_plan
from repro.errors import ClientCrashError
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import DeleteIntent, FlushIntent
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.serialization import decode_records

from daemon_drive import drain

MOUNT = "/mnt/s3/"


def _simple_work(path=f"{MOUNT}out/a.dat", uuid="f-1", version=0, size=1000):
    ref = NodeRef(uuid, version)
    intent = FlushIntent(
        path=path, uuid=uuid, ref=ref, blob=Blob.synthetic(size, f"{path}@{version}")
    )
    bundle = ProvenanceBundle(uuid=uuid)
    bundle.add(ProvenanceRecord(ref, "type", "file"))
    bundle.add(ProvenanceRecord(ref, "name", path))
    return FlushWork(primary=intent, bundles=[bundle])


def _strict(protocol_cls, **kwargs):
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=3)
    return account, protocol_cls(account, **kwargs)


class TestP1:
    def test_flush_writes_data_and_provenance_objects(self):
        account, protocol = _strict(ProtocolP1)
        work = _simple_work()
        protocol.flush(work)
        blob, metadata = account.s3.get(protocol.bucket, data_key(work.primary.path))
        assert blob.size == 1000
        assert metadata["prov-uuid"] == "f-1"
        assert metadata["version"] == "0"
        prov_blob, _ = account.s3.get(protocol.bucket, provenance_object_key("f-1"))
        records = decode_records(prov_blob.text())
        attributes = {r.attribute for r in records}
        # The paper's extra record naming the primary object, plus the
        # coupling hash.
        assert {"type", "name", "object", "sha1"} <= attributes

    def test_second_flush_appends(self):
        account, protocol = _strict(ProtocolP1)
        protocol.flush(_simple_work(version=0))
        work2 = _simple_work(version=1)
        protocol.flush(work2)
        prov_blob, _ = account.s3.get(protocol.bucket, provenance_object_key("f-1"))
        records = decode_records(prov_blob.text())
        versions = {r.subject.version for r in records}
        assert versions == {0, 1}
        # The append cost a GET in addition to the PUTs.
        assert account.billing.snapshot()["s3"]["GET"] >= 1

    def test_bookkeeping(self):
        _, protocol = _strict(ProtocolP1)
        work = _simple_work()
        assert not protocol.provenance_stored(work.primary.ref)
        protocol.flush(work)
        assert protocol.provenance_stored(work.primary.ref)
        assert protocol.data_stored_version("f-1") == 0

    def test_delete_preserves_provenance(self):
        account, protocol = _strict(ProtocolP1)
        work = _simple_work()
        protocol.flush(work)
        protocol.delete(DeleteIntent(path=work.primary.path, uuid="f-1"))
        assert account.s3.peek_latest(protocol.bucket, data_key(work.primary.path)) is None
        assert account.s3.peek_latest(
            protocol.bucket, provenance_object_key("f-1")
        ) is not None

    def test_causal_mode_orders_provenance_before_data(self):
        account, protocol = _strict(ProtocolP1, mode=UploadMode.CAUSAL)
        account.faults.arm_crash("p1.after_prov_put")
        with pytest.raises(ClientCrashError):
            protocol.flush(_simple_work())
        # Provenance is persistent; the data never made it.
        assert account.s3.peek_latest(
            protocol.bucket, provenance_object_key("f-1")
        ) is not None
        assert account.s3.peek_latest(
            protocol.bucket, data_key(f"{MOUNT}out/a.dat")
        ) is None

    def test_provenance_only_flush(self):
        account, protocol = _strict(ProtocolP1)
        work = _simple_work()
        work.include_data = False
        protocol.flush(work)
        assert account.s3.peek_latest(
            protocol.bucket, data_key(work.primary.path)
        ) is None
        assert protocol.data_stored_version("f-1") is None


class TestP2:
    def test_flush_writes_simpledb_items(self):
        account, protocol = _strict(ProtocolP2)
        protocol.flush(_simple_work())
        item = account.simpledb.get_attributes(protocol.domain, "f-1_0")
        assert item["type"] == ["file"]
        assert "sha1" in item

    def test_one_item_per_version(self):
        account, protocol = _strict(ProtocolP2)
        ref0, ref1 = NodeRef("f-9", 0), NodeRef("f-9", 1)
        bundle = ProvenanceBundle(uuid="f-9")
        bundle.add(ProvenanceRecord(ref0, "type", "file"))
        bundle.add(ProvenanceRecord(ref1, "version-of", ref0))
        intent = FlushIntent(
            path=f"{MOUNT}x", uuid="f-9", ref=ref1, blob=Blob.synthetic(10, "x@1")
        )
        protocol.flush(FlushWork(primary=intent, bundles=[bundle]))
        assert account.simpledb.peek_item(protocol.domain, "f-9_0")
        assert account.simpledb.peek_item(protocol.domain, "f-9_1")

    def test_large_value_spills_to_s3(self):
        account, protocol = _strict(ProtocolP2)
        ref = NodeRef("p-1", 0)
        bundle = ProvenanceBundle(uuid="p-1")
        big = "E" * 2000  # over SimpleDB's 1 KB limit
        bundle.add(ProvenanceRecord(ref, "env", big))
        intent = FlushIntent(
            path=f"{MOUNT}y", uuid="p-1", ref=ref, blob=Blob.synthetic(10, "y@0")
        )
        protocol.flush(FlushWork(primary=intent, bundles=[bundle]))
        item = account.simpledb.get_attributes(protocol.domain, "p-1_0")
        pointer = item["env"][0]
        assert pointer.startswith("s3-spill:")
        spill_blob, _ = account.s3.get(protocol.bucket, pointer.split(":", 1)[1])
        assert spill_blob.text() == big

    def test_item_overflow_spills_records(self):
        account, protocol = _strict(ProtocolP2)
        ref = NodeRef("f-2", 0)
        bundle = ProvenanceBundle(uuid="f-2")
        for index in range(300):  # over the 256-pair item limit
            bundle.add(ProvenanceRecord(ref, "input", NodeRef(f"p-{index}", 0)))
        intent = FlushIntent(
            path=f"{MOUNT}z", uuid="f-2", ref=ref, blob=Blob.synthetic(10, "z@0")
        )
        protocol.flush(FlushWork(primary=intent, bundles=[bundle]))
        item = account.simpledb.get_attributes(protocol.domain, "f-2_0")
        assert "overflow" in item
        from repro.core.detection import SimpleDBProvenanceReader

        reader = SimpleDBProvenanceReader(account, protocol.domain, protocol.bucket)
        attributes = reader.peek_attributes(ref)
        assert len(attributes["input"]) >= 300

    def test_item_plan_batches_of_25(self):
        account, protocol = _strict(ProtocolP2)
        bundles = []
        for index in range(60):
            ref = NodeRef(f"n-{index}", 0)
            bundle = ProvenanceBundle(uuid=f"n-{index}")
            bundle.add(ProvenanceRecord(ref, "type", "file"))
            bundles.append(bundle)
        plan = build_item_plan(bundles, account.s3, protocol.bucket)
        batches = plan.batches()
        assert [len(b) for b in batches] == [25, 25, 10]


class TestP3:
    def test_flush_then_commit_produces_final_state(self):
        account, protocol = _strict(ProtocolP3)
        work = _simple_work()
        protocol.flush(work)
        # Before the daemon runs: only the temporary object exists.
        assert account.s3.peek_latest(protocol.bucket, data_key(work.primary.path)) is None
        assert account.sqs.pending_count(protocol.queue_url) >= 1
        protocol.finalize()
        assert protocol.commit_daemon.committed_count() == 1
        # Daemon writes commit at future timestamps (its time is not
        # charged to the client); move past them before reading.
        account.settle(300.0)
        blob, metadata = account.s3.get(protocol.bucket, data_key(work.primary.path))
        assert blob.size == 1000
        assert metadata["prov-uuid"] == "f-1"
        item = account.simpledb.get_attributes(protocol.domain, "f-1_0")
        assert item["type"] == ["file"]
        # Temporaries and WAL messages are gone.
        assert account.s3.peek_keys(protocol.bucket, "tmp/") == []
        assert account.sqs.pending_count(protocol.queue_url) == 0

    def test_incomplete_transaction_never_commits(self):
        account, protocol = _strict(ProtocolP3, mode=UploadMode.CAUSAL)
        # Build a work item big enough for multiple WAL messages.
        ref = NodeRef("f-big", 0)
        bundle = ProvenanceBundle(uuid="f-big")
        for index in range(400):
            bundle.add(
                ProvenanceRecord(ref, "env", f"VAR{index}=" + "v" * 100)
            )
        intent = FlushIntent(
            path=f"{MOUNT}big", uuid="f-big", ref=ref, blob=Blob.synthetic(10, "b@0")
        )
        account.faults.arm_crash("p3.mid_log")
        with pytest.raises(ClientCrashError):
            protocol.flush(FlushWork(primary=intent, bundles=[bundle]))
        assert drain(protocol.commit_daemon) == (0, 1)  # committed, pending
        # Neither the data nor the provenance became visible.
        assert account.s3.peek_latest(protocol.bucket, data_key(f"{MOUNT}big")) is None
        assert account.simpledb.peek_item(protocol.domain, "f-big_0") == {}

    def test_daemon_crash_recovery_on_another_machine(self):
        from repro.core.commit_daemon import CommitDaemon

        account, protocol = _strict(ProtocolP3)
        work = _simple_work()
        protocol.flush(work)
        account.faults.arm_crash("p3.mid_commit")
        with pytest.raises(ClientCrashError):
            protocol.finalize()
        account.faults.disarm_all()
        # Another machine starts a fresh daemon against the same queue.
        account.clock.advance(60.0)  # visibility timeout lapses
        recovery = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
        )
        assert drain(recovery)[0] == 1
        account.settle(300.0)
        blob, _ = account.s3.get(protocol.bucket, data_key(work.primary.path))
        assert blob.size == 1000

    def test_commit_is_idempotent_under_duplicate_delivery(self):
        account, protocol = _strict(ProtocolP3)
        account.sqs.duplicate_delivery_rate = 0.5
        for index in range(5):
            protocol.flush(_simple_work(path=f"{MOUNT}f{index}", uuid=f"u{index}"))
        protocol.finalize()
        account.settle(300.0)
        for index in range(5):
            blob, _ = account.s3.get(protocol.bucket, data_key(f"{MOUNT}f{index}"))
            assert blob.size == 1000

    def test_cleaner_collects_stale_temporaries(self):
        account, protocol = _strict(ProtocolP3, mode=UploadMode.CAUSAL)
        ref = NodeRef("f-orphan", 0)
        bundle = ProvenanceBundle(uuid="f-orphan")
        for index in range(400):
            bundle.add(ProvenanceRecord(ref, "env", f"V{index}=" + "x" * 100))
        intent = FlushIntent(
            path=f"{MOUNT}orphan", uuid="f-orphan", ref=ref,
            blob=Blob.synthetic(10, "o@0"),
        )
        account.faults.arm_crash("p3.mid_log")
        with pytest.raises(ClientCrashError):
            protocol.flush(FlushWork(primary=intent, bundles=[bundle]))
        assert len(account.s3.peek_keys(protocol.bucket, "tmp/")) == 1
        # Too fresh to collect.
        assert protocol.run_cleaner() == 0
        account.clock.advance(5 * 24 * 3600.0)
        assert protocol.run_cleaner() == 1
        assert account.s3.peek_keys(protocol.bucket, "tmp/") == []

    def test_cleaner_spares_recent_temporaries(self):
        account, protocol = _strict(ProtocolP3)
        protocol.flush(_simple_work())
        assert protocol.run_cleaner() == 0
        assert len(account.s3.peek_keys(protocol.bucket, "tmp/")) == 1
