"""Tests for coupling detection, dangling ancestors, and property checkers."""

import pytest

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.consistency import ConsistencyModel
from repro.core import PAS3fs, ProtocolP1, ProtocolP2, UploadMode, collect
from repro.core.detection import (
    CouplingStatus,
    S3ProvenanceReader,
    SimpleDBProvenanceReader,
    check_coupling,
    find_dangling_ancestors,
)
from repro.core.properties import (
    check_causal_ordering,
    check_data_coupling,
    check_efficient_query,
    check_persistence,
)
from repro.core.protocol_base import data_key
from repro.errors import ClientCrashError
from repro.provenance.graph import NodeRef
from repro.provenance.syscalls import TraceBuilder

MOUNT = "/mnt/s3/"


def _run(protocol_cls, trace, mode=UploadMode.PARALLEL, crash_at=None, skip=0):
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=2)
    protocol = protocol_cls(account, mode=mode)
    fs = PAS3fs(account, protocol)
    replay = collect(trace)
    if crash_at:
        account.faults.arm_crash(crash_at, skip=skip)
    try:
        fs.run(replay)
    except ClientCrashError:
        pass
    protocol.finalize()
    account.settle(300.0)
    if protocol_cls is ProtocolP1:
        reader = S3ProvenanceReader(account, protocol.bucket)
    else:
        reader = SimpleDBProvenanceReader(account, protocol.domain, protocol.bucket)
    return account, protocol, replay, reader


def _two_file_trace():
    builder = TraceBuilder()
    pid = builder.spawn("tool", exec_path="/bin/tool")
    builder.write_close(pid, f"{MOUNT}a", 1000)
    pid2 = builder.spawn("tool2", exec_path="/bin/tool2")
    builder.read(pid2, f"{MOUNT}a", 1000)
    builder.write_close(pid2, f"{MOUNT}b", 2000)
    return builder.trace


class TestCouplingDetection:
    def test_healthy_run_is_coupled(self):
        account, protocol, replay, reader = _run(ProtocolP1, _two_file_trace())
        for path in (f"{MOUNT}a", f"{MOUNT}b"):
            check = check_coupling(account, protocol.bucket, path, reader)
            assert check.coupled, check

    def test_crash_between_writes_detected(self):
        account, protocol, replay, reader = _run(
            ProtocolP1, _two_file_trace(), mode=UploadMode.CAUSAL,
            crash_at="p1.after_prov_put", skip=1,
        )
        check = check_coupling(account, protocol.bucket, f"{MOUNT}b", reader)
        assert check.status is CouplingStatus.MISSING_DATA

    def test_stale_data_detected(self):
        """Provenance describing a newer version than the data shows."""
        builder = TraceBuilder()
        pid = builder.spawn("tool", exec_path="/bin/tool")
        builder.write(pid, f"{MOUNT}b", 1000)
        builder.close(pid, f"{MOUNT}b")          # version 0 persisted
        builder.write(pid, f"{MOUNT}b", 2000)    # freeze -> version 1
        builder.close(pid, f"{MOUNT}b")
        account, protocol, replay, reader = _run(ProtocolP2, builder.trace)
        # Simulate a lost data update: roll the data object's metadata
        # back to version 0 (digest cleared so the version check, not the
        # hash check, fires).
        key = data_key(f"{MOUNT}b")
        record = account.s3.peek_latest(protocol.bucket, key)
        account.s3.put(
            protocol.bucket, key, record.blob,
            {"prov-uuid": record.metadata["prov-uuid"], "version": "0"},
        )
        account.settle(300.0)
        check = check_coupling(account, protocol.bucket, f"{MOUNT}b", reader)
        assert check.status is CouplingStatus.STALE_DATA
        assert check.provenance_version == 1

    def test_hash_mismatch_detected(self):
        account, protocol, replay, reader = _run(ProtocolP2, _two_file_trace())
        key = data_key(f"{MOUNT}b")
        record = account.s3.peek_latest(protocol.bucket, key)
        tampered = Blob.synthetic(record.blob.size, "tampered-content")
        account.s3.put(
            protocol.bucket, key, tampered,
            {**record.metadata, "digest": tampered.digest},
        )
        account.settle(300.0)
        check = check_coupling(account, protocol.bucket, f"{MOUNT}b", reader)
        assert check.status is CouplingStatus.HASH_MISMATCH


class TestAncestry:
    def test_no_dangling_in_healthy_run(self):
        account, protocol, replay, reader = _run(ProtocolP2, _two_file_trace())
        ref = NodeRef(replay.file_uuids[f"{MOUNT}b"], 0)
        assert find_dangling_ancestors(reader, ref) == []


class TestPropertyCheckers:
    def test_persistence_checker(self):
        builder = TraceBuilder()
        pid = builder.spawn("t")
        builder.write_close(pid, f"{MOUNT}victim", 100)
        builder.unlink(pid, f"{MOUNT}victim")
        account, protocol, replay, reader = _run(ProtocolP2, builder.trace)
        ref = NodeRef(replay.file_uuids[f"{MOUNT}victim"], 0)
        report = check_persistence(account, protocol.bucket, reader, [ref])
        assert report.holds

    def test_causal_ordering_checker_flags_dangling(self):
        account, protocol, replay, reader = _run(ProtocolP2, _two_file_trace())
        # Manufacture a dangling pointer: an item referencing a ghost.
        account.simpledb.put_attributes(
            protocol.domain, "zz-fake_0", [("input", "ghost_7"), ("type", "file")]
        )
        account.settle(300.0)
        report = check_causal_ordering(reader)
        assert not report.holds
        assert any("ghost_7" in v for v in report.violations)

    def test_coupling_checker_counts_stranded_provenance(self):
        account, protocol, replay, reader = _run(
            ProtocolP1, _two_file_trace(), mode=UploadMode.CAUSAL,
            crash_at="p1.after_prov_put", skip=1,
        )
        paths = [f"{MOUNT}a", f"{MOUNT}b"]
        expected = {p: replay.file_uuids[p] for p in paths}
        report = check_data_coupling(
            account, protocol.bucket, reader, paths, expected_uuids=expected
        )
        assert not report.holds

    def test_efficient_query_flag(self):
        account = CloudAccount()
        assert not check_efficient_query(ProtocolP1(account)).holds
        assert check_efficient_query(ProtocolP2(account)).holds
