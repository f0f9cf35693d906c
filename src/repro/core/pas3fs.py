"""PA-S3fs and the plain S3fs baseline (§4.2).

``PlainS3fs`` is the paper's baseline: a user-level FUSE file system
backed by S3 with a local write-back cache — reads hit the cache or issue
a GET; close/flush issues a PUT; no provenance anywhere.  Like the real
S3fs, metadata lookups (``getattr``) cost a HEAD before each transfer.

``PAS3fs`` extends it the way the paper extends S3fs: system-call events
flow through the PASS collector, data is cached in a local temporary
directory and provenance in memory, and on close/flush both are pushed to
the cloud through one of the protocols (P1/P2/P3).  The flush carries the
pending provenance of the object's full ancestor closure, plus the data
of any ancestor file version that has not reached the cloud yet —
multi-object causal ordering's requirement.

Only paths under the *mount prefix* live on the cloud; other paths are
local files that PASS still tracks (their provenance rides along in
ancestor closures) but whose data never leaves the machine.

Application compute time is charged to the virtual clock, scaled by the
environment profile (UML's CPU penalty; its 512 MB memory penalty for
memory-bound phases — the effect that made Blast 2× slower under UML in
the paper's §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.errors import NoSuchKeyError
from repro.provenance.pass_collector import (
    ComputeIntent,
    DeleteIntent,
    FlushIntent,
    PassCollector,
    ReadIntent,
)
from repro.provenance.syscalls import (
    CloseEvent,
    ComputeEvent,
    FlushEvent,
    ReadEvent,
    SyscallTrace,
    UnlinkEvent,
    WriteEvent,
)

from repro.core.protocol_base import FlushWork, StorageProtocol, data_key

#: Paths under this prefix live on the S3-backed mount.
DEFAULT_MOUNT_PREFIX = "/mnt/s3/"


@dataclass
class RunResult:
    """What one workload run measured (the raw material of Figures 3/4
    and Tables 3/4)."""

    configuration: str
    elapsed_seconds: float
    operations: int
    bytes_transmitted: int
    bytes_received: int
    compute_seconds: float = 0.0
    cost_usd: float = 0.0

    @property
    def mb_transmitted(self) -> float:
        return self.bytes_transmitted / (1024.0 * 1024.0)


def stage_inputs(
    account: CloudAccount,
    bucket: str,
    files: Dict[str, int],
    connections: int = 64,
) -> None:
    """Pre-populate input files in S3 before a run (untimed, unbilled
    setup — the paper's workload inputs already live on the mount).

    Writes land with ``advance_clock=False`` and a settle period makes
    them visible, so the run starts from a quiescent store.  Stage before
    issuing any billable workload traffic: the meters are reset.
    """
    account.s3.create_bucket(bucket)
    requests = [
        account.s3.put_request(
            bucket, data_key(path), Blob.synthetic(size, f"{path}@staged")
        )
        for path, size in sorted(files.items())
    ]
    account.scheduler.execute_batch(requests, connections, advance_clock=False)
    account.billing.reset()
    account.scheduler.reset_resources()
    account.settle(60.0)


class _MeterWindow:
    """Captures billing/clock deltas around a run."""

    def __init__(self, account: CloudAccount):
        self._account = account
        self._ops = account.billing.operation_count()
        self._bytes_in = account.billing.bytes_transmitted()
        self._bytes_out = account.billing.bytes_received()
        self._stopwatch = account.stopwatch()

    def result(
        self, configuration: str, compute_seconds: float
    ) -> RunResult:
        billing = self._account.billing
        return RunResult(
            configuration=configuration,
            elapsed_seconds=self._stopwatch.elapsed(),
            operations=billing.operation_count() - self._ops,
            bytes_transmitted=billing.bytes_transmitted() - self._bytes_in,
            bytes_received=billing.bytes_received() - self._bytes_out,
            compute_seconds=compute_seconds,
        )


class PlainS3fs:
    """The S3fs baseline: data only, no provenance."""

    def __init__(
        self,
        account: CloudAccount,
        bucket: str = "pass-data",
        connections: int = 32,
        mount_prefix: str = DEFAULT_MOUNT_PREFIX,
    ):
        self.account = account
        self.bucket = bucket
        self.connections = connections
        self.mount_prefix = mount_prefix
        account.s3.create_bucket(bucket)
        self._cache: Set[str] = set()
        self._sizes: Dict[str, int] = {}

    def on_mount(self, path: str) -> bool:
        return path.startswith(self.mount_prefix)

    def run(self, trace: SyscallTrace, configuration: str = "s3fs") -> RunResult:
        """Execute a trace against S3, returning measurements."""
        window = _MeterWindow(self.account)
        compute = 0.0
        env = self.account.profile.environment

        for event in trace:
            if isinstance(event, ComputeEvent):
                dt = event.seconds * env.cpu_factor
                if event.memory_bound:
                    dt *= env.memory_penalty
                compute += dt
                self.account.clock.advance(dt)
            elif isinstance(event, ReadEvent):
                if self.on_mount(event.path):
                    self._read(event.path)
            elif isinstance(event, WriteEvent):
                self._sizes[event.path] = event.size
                self._cache.add(event.path)
            elif isinstance(event, (CloseEvent, FlushEvent)):
                if self.on_mount(event.path):
                    self._flush(event.path)
            elif isinstance(event, UnlinkEvent):
                if self.on_mount(event.path):
                    self.account.s3.delete(self.bucket, data_key(event.path))
                self._cache.discard(event.path)
                self._sizes.pop(event.path, None)

        return window.result(configuration, compute)

    def _read(self, path: str) -> None:
        if path in self._cache:
            return
        # FUSE lookup: getattr (HEAD) precedes the data read.
        try:
            self.account.s3.head(self.bucket, data_key(path))
            self.account.s3.get(self.bucket, data_key(path))
        except NoSuchKeyError:
            # Not visible yet or never staged; requests were still billed.
            return
        self._cache.add(path)

    def _flush(self, path: str) -> None:
        size = self._sizes.get(path)
        if size is None:
            return
        blob = Blob.synthetic(size, f"{path}@plain")
        # getattr before the upload, as the FUSE path does.
        try:
            self.account.s3.head(self.bucket, data_key(path))
        except NoSuchKeyError:
            pass
        self.account.s3.put(self.bucket, data_key(path), blob)


class PAS3fs:
    """Provenance-Aware S3fs: PASS collection + protocol flushes."""

    def __init__(
        self,
        account: CloudAccount,
        protocol: StorageProtocol,
        collector: Optional[PassCollector] = None,
        mount_prefix: str = DEFAULT_MOUNT_PREFIX,
    ):
        self.account = account
        self.protocol = protocol
        self.collector = collector or PassCollector()
        self.mount_prefix = mount_prefix
        self._cache: Set[str] = set()
        #: mount paths deleted during the run (for persistence checks).
        self.deleted_paths: List[str] = []

    def on_mount(self, path: str) -> bool:
        return path.startswith(self.mount_prefix)

    def run(self, trace: SyscallTrace, configuration: str = "") -> RunResult:
        """Execute a trace, collecting provenance and flushing through the
        protocol.  The protocol's asynchronous work (P3's commit daemon)
        runs in :meth:`finalize`, which callers invoke separately so the
        elapsed time matches the paper's accounting."""
        window = _MeterWindow(self.account)
        compute = 0.0
        env = self.account.profile.environment

        for event in trace:
            for intent in self.collector.feed(event):
                if isinstance(intent, ComputeIntent):
                    dt = intent.seconds * env.cpu_factor
                    if intent.memory_bound:
                        dt *= env.memory_penalty
                    compute += dt
                    self.account.clock.advance(dt)
                elif isinstance(intent, ReadIntent):
                    if self.on_mount(intent.path):
                        self._read(intent)
                elif isinstance(intent, FlushIntent):
                    if self.on_mount(intent.path):
                        self._flush(intent)
                elif isinstance(intent, DeleteIntent):
                    if self.on_mount(intent.path):
                        self.protocol.delete(intent)
                        self.deleted_paths.append(intent.path)
                    self._cache.discard(intent.path)

        return window.result(configuration or self.protocol.name, compute)

    def finalize(self) -> None:
        """Drain asynchronous protocol work (P3's commit daemon)."""
        self.protocol.finalize()

    # -- intent handlers -----------------------------------------------------

    def _read(self, intent: ReadIntent) -> None:
        if intent.path in self._cache:
            return
        try:
            self.account.s3.head(
                self.protocol.bucket, data_key(intent.path)
            )
            self.protocol.read_data(intent.path)
        except NoSuchKeyError:
            return
        self._cache.add(intent.path)

    def _flush(self, intent: FlushIntent) -> None:
        self._cache.add(intent.path)
        bundles = self.collector.pop_pending_closure(intent.uuid)
        # getattr before the upload, matching the FUSE write-back path.
        try:
            self.account.s3.head(self.protocol.bucket, data_key(intent.path))
        except NoSuchKeyError:
            pass
        work = FlushWork(
            primary=intent,
            bundles=bundles,
            ancestor_data=self._unstored_ancestor_data(intent, bundles),
        )
        self.protocol.flush(work)

    def _unstored_ancestor_data(
        self, primary: FlushIntent, bundles
    ) -> List[FlushIntent]:
        """Ancestor *file* versions referenced by this flush whose data
        should be on the cloud but is not yet (written but not closed when
        a reader consumed them).  Their data rides along for causal
        ordering.  Local (off-mount) files contribute provenance only."""
        extra: List[FlushIntent] = []
        for bundle in bundles:
            if bundle.uuid == primary.uuid:
                continue
            if not self.collector.is_file_uuid(bundle.uuid):
                continue
            path = self.collector.path_of(bundle.uuid)
            if path is None or not self.on_mount(path):
                continue
            size = self.collector.file_size(path)
            if size is None:
                continue
            if self.protocol.data_stored_version(bundle.uuid) is not None:
                continue
            ref = self.collector.versions.current(bundle.uuid)
            extra.append(
                FlushIntent(
                    path=path,
                    uuid=bundle.uuid,
                    ref=ref,
                    blob=Blob.synthetic(size, f"{path}@{ref.version}"),
                )
            )
        return extra
