"""Tests for PA-S3fs and the plain S3fs baseline (integration)."""

import hashlib

import pytest

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.profiles import SimulationProfile, UML_ENV
from repro.core import (
    PROTOCOLS,
    FlushWork,
    PAS3fs,
    PlainS3fs,
    ProtocolP1,
    ProtocolP2,
    ProtocolP3,
    collect,
)
from repro.core.pas3fs import stage_inputs
from repro.core.protocol_base import data_key
from repro.provenance.serialization import encode_records
from repro.provenance.syscalls import TraceBuilder
from repro.workloads import (
    make_blast_workload,
    make_challenge_workload,
    make_nightly_workload,
)

MOUNT = "/mnt/s3/"


def _pipeline_trace():
    builder = TraceBuilder()
    pid = builder.spawn("gen", argv=["gen"], exec_path="/bin/gen")
    builder.read(pid, "/local/in.dat", 1000)
    builder.compute(pid, 2.0)
    builder.write_close(pid, f"{MOUNT}out/a", 50_000)
    pid2 = builder.spawn("xform", parent_pid=pid, exec_path="/bin/xform")
    builder.read(pid2, f"{MOUNT}out/a", 50_000)
    builder.write_close(pid2, f"{MOUNT}out/b", 20_000)
    builder.unlink(pid2, f"{MOUNT}out/a")
    return builder.trace


class TestPlainS3fs:
    def test_uploads_only_mount_files(self):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        result = PlainS3fs(account).run(_pipeline_trace())
        keys = account.s3.peek_keys("pass-data")
        assert data_key(f"{MOUNT}out/b") in keys
        assert all("local" not in key for key in keys)
        assert result.operations > 0

    def test_compute_time_charged(self):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        result = PlainS3fs(account).run(_pipeline_trace())
        assert result.compute_seconds == pytest.approx(2.0)
        assert result.elapsed_seconds > 2.0

    def test_uml_penalty_scales_compute(self):
        profile = SimulationProfile().with_environment(UML_ENV)
        account = CloudAccount(
            profile=profile, consistency=ConsistencyModel.STRICT
        )
        result = PlainS3fs(account).run(_pipeline_trace())
        assert result.compute_seconds == pytest.approx(2.0 * UML_ENV.cpu_factor)

    def test_cache_prevents_reget(self):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        builder = TraceBuilder()
        pid = builder.spawn("reader")
        stage_inputs(account, "pass-data", {f"{MOUNT}in/x": 1000})
        builder.read(pid, f"{MOUNT}in/x", 1000)
        builder.read(pid, f"{MOUNT}in/x", 1000)
        PlainS3fs(account).run(builder.trace)
        assert account.billing.snapshot()["s3"]["GET"] == 1

    def test_unlink_deletes(self):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        PlainS3fs(account).run(_pipeline_trace())
        assert account.s3.peek_latest("pass-data", data_key(f"{MOUNT}out/a")) is None


class TestPAS3fs:
    @pytest.mark.parametrize("protocol_cls", [ProtocolP1, ProtocolP2, ProtocolP3])
    def test_end_to_end_stores_data_and_provenance(self, protocol_cls):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        protocol = protocol_cls(account)
        fs = PAS3fs(account, protocol)
        result = fs.run(collect(_pipeline_trace()))
        fs.finalize()
        account.settle(300.0)
        blob, metadata = protocol.read_data(f"{MOUNT}out/b")
        assert blob.size == 20_000
        assert "prov-uuid" in metadata
        assert result.elapsed_seconds > 0

    def test_provenance_survives_unlink(self):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        protocol = ProtocolP1(account)
        fs = PAS3fs(account, protocol)
        replay = collect(_pipeline_trace())
        fs.run(replay)
        uuid_a = replay.file_uuids[f"{MOUNT}out/a"]
        from repro.core.protocol_base import provenance_object_key

        assert account.s3.peek_latest("pass-data", data_key(f"{MOUNT}out/a")) is None
        assert (
            account.s3.peek_latest("pass-data", provenance_object_key(uuid_a))
            is not None
        )
        assert fs.deleted_paths == [f"{MOUNT}out/a"]

    def test_local_files_contribute_provenance_not_data(self):
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        protocol = ProtocolP2(account)
        fs = PAS3fs(account, protocol)
        replay = collect(_pipeline_trace())
        fs.run(replay)
        # No data object for the local input...
        assert account.s3.peek_latest("pass-data", data_key("/local/in.dat")) is None
        # ...but its provenance item exists (ancestor closure).
        uuid = replay.file_uuids["/local/in.dat"]
        assert account.simpledb.peek_item(protocol.domain, f"{uuid}_0")

    def test_protocol_costs_more_than_baseline(self):
        baseline_account = CloudAccount(consistency=ConsistencyModel.STRICT)
        baseline = PlainS3fs(baseline_account).run(_pipeline_trace())
        protocol_account = CloudAccount(consistency=ConsistencyModel.STRICT)
        fs = PAS3fs(protocol_account, ProtocolP1(protocol_account))
        result = fs.run(collect(_pipeline_trace()))
        assert result.operations > baseline.operations
        assert result.elapsed_seconds >= baseline.elapsed_seconds


def _unclosed_read_trace():
    """Readers consume a mount file that is written but not yet closed:
    the first reader's output flush carries the log's data, the second's
    finds it stored and leaves it out."""
    builder = TraceBuilder()
    writer = builder.spawn("writer", exec_path="/bin/writer")
    builder.write(writer, f"{MOUNT}shared/log", 4000)
    first = builder.spawn("reader", exec_path="/bin/reader")
    builder.read(first, f"{MOUNT}shared/log", 4000)
    builder.write_close(first, f"{MOUNT}shared/out1", 1000)
    appender = builder.spawn("appender", exec_path="/bin/appender")
    builder.write(appender, f"{MOUNT}shared/log", 6000)
    second = builder.spawn("reader", exec_path="/bin/reader")
    builder.read(second, f"{MOUNT}shared/log", 6000)
    builder.write_close(second, f"{MOUNT}shared/out2", 1000)
    builder.close(appender, f"{MOUNT}shared/log")
    return builder.trace


def _replay_digest(replay):
    """sha256 over every step, each flush's bundles as encoded records."""
    digest = hashlib.sha256()
    for step in replay.steps:
        if isinstance(step, FlushWork):
            digest.update(
                repr((step.primary, step.ancestor_data, step.include_data)).encode()
            )
            for bundle in step.bundles:
                digest.update(encode_records(bundle.records).encode())
        else:
            digest.update(repr(step).encode())
    digest.update(repr(sorted(replay.file_uuids.items())).encode())
    return digest.hexdigest()


def _repeated_write_trace():
    """One writer writes a mount file five times, re-versioning itself
    with a read halfway: one ``input`` record per writer version."""
    builder = TraceBuilder()
    pid = builder.spawn("logger", exec_path="/bin/logger")
    for size in (100, 200, 300):
        builder.write(pid, f"{MOUNT}logs/run.log", size)
    builder.read(pid, "/etc/logger.conf", 10)
    for size in (400, 500):
        builder.write(pid, f"{MOUNT}logs/run.log", size)
    builder.close(pid, f"{MOUNT}logs/run.log")
    return builder.trace


#: ``_replay_digest(collect(trace))``, recorded before the collector's
#: graph was deleted.  Dropping the collector's dedupe of repeated
#: writes' ``input`` records changes ``repeated-write``; visiting a
#: closure's xrefs in another order changes all four.
COLLECT_SHA256 = {
    "nightly": (
        lambda: make_nightly_workload(nights=5).trace,
        "87af37fc3fa8ed0bd7520074f97c326ee4c472f5059eda97809cbc37bdc1dda9",
    ),
    "blast": (
        lambda: make_blast_workload(jobs=2, queries_per_job=30).trace,
        "2fee89f3499379e5e7591873ca150b8daa0c3dd65047b7d128f43427a64366ff",
    ),
    "challenge": (
        lambda: make_challenge_workload(sessions=2).trace,
        "dc14e6f26fcaa18e85a80812f483d169c8d8cc210acc52689406b9648144feef",
    ),
    "repeated-write": (
        _repeated_write_trace,
        "3e4b5b226a7be0e22dfe4e57c5a9c283363327b36a8499892ac66ac579619cd8",
    ),
}


def _replay_run(name, replay):
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=3)
    fs = PAS3fs(account, PROTOCOLS[name](account))
    result = fs.run(replay)
    fs.finalize()
    account.settle(300.0)
    return result, store_fingerprint(account)


class TestReplay:
    @pytest.mark.parametrize("name", sorted(COLLECT_SHA256))
    def test_collect_digest_is_frozen(self, name):
        make_trace, expected = COLLECT_SHA256[name]
        assert _replay_digest(collect(make_trace())) == expected

    def test_ancestor_data_is_every_unclosed_mount_ancestor(self):
        replay = collect(_unclosed_read_trace())
        log = replay.file_uuids[f"{MOUNT}shared/log"]
        flushes = [s for s in replay.steps if isinstance(s, FlushWork)]
        assert [w.primary.path for w in flushes] == [
            f"{MOUNT}shared/out1", f"{MOUNT}shared/out2", f"{MOUNT}shared/log",
        ]
        # Both readers' flushes name the log, at its size as of that flush;
        # whether its data ships is the protocol's call at replay time.
        assert [
            [(a.uuid, a.blob.size) for a in w.ancestor_data] for w in flushes
        ] == [[(log, 4000)], [(log, 6000)], []]

    def test_replay_ships_unstored_ancestor_data_once(self):
        replay = collect(_unclosed_read_trace())
        account = CloudAccount(consistency=ConsistencyModel.STRICT)
        protocol = ProtocolP1(account)
        shipped = []
        flush = protocol.flush

        def spy(work):
            shipped.append([a.path for a in work.ancestor_data])
            flush(work)

        protocol.flush = spy
        PAS3fs(account, protocol).run(replay)
        assert shipped == [[f"{MOUNT}shared/log"], [], []]

    def test_one_replay_serves_every_protocol(self):
        """A shared replay gives each protocol what a fresh collection
        gives it, and no run changes the replay."""
        trace = _unclosed_read_trace()
        replay = collect(trace)
        digest = _replay_digest(replay)
        for name in ("p1", "p2", "p3", "p3"):
            assert _replay_run(name, replay) == _replay_run(name, collect(trace))
            assert _replay_digest(replay) == digest
