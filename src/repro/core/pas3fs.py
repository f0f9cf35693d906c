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

Collection depends on the trace alone, so it runs once: :func:`collect`
turns a trace into a :class:`Replay`, which ``PAS3fs.run`` replays
through any protocol, choosing at replay time which ancestors' data is
not yet stored.

Only paths under the *mount prefix* live on the cloud; other paths are
local files that PASS still tracks (their provenance rides along in
ancestor closures) but whose data never leaves the machine.

Application compute time is charged to the virtual clock, scaled by the
environment profile (UML's CPU penalty; its 512 MB memory penalty for
memory-bound phases — the effect that made Blast 2× slower under UML in
the paper's §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Set, Tuple, Union

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

from repro.core.protocol_base import DATA_BUCKET, FlushWork, StorageProtocol, data_key

#: The S3fs mount point: only paths under it live on the cloud.
MOUNT = "/mnt/s3/"


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

    def overhead_vs(self, baseline: "RunResult") -> float:
        """Fractional elapsed-time overhead relative to a baseline run."""
        if baseline.elapsed_seconds == 0:
            return 0.0
        return self.elapsed_seconds / baseline.elapsed_seconds - 1.0


#: One replay step: compute time, or a mount read, delete or flush.
Step = Union[ComputeIntent, ReadIntent, DeleteIntent, FlushWork]


@dataclass(frozen=True)
class Replay:
    """A trace's collection, replayable through any protocol.

    ``steps`` are in trace order.  Each flush is a :class:`FlushWork`
    with the closure it popped; its ``ancestor_data`` is every mount
    file ancestor in that closure (current version, last written size),
    stored or not.  ``file_uuids`` maps every path touched to its uuid.
    """

    steps: Tuple[Step, ...]
    file_uuids: Mapping[str, str]


def collect(trace: SyscallTrace) -> Replay:
    """Run the PASS collector over ``trace`` once (§4.2)."""
    collector = PassCollector()
    steps: List[Step] = []
    for event in trace:
        for intent in collector.feed(event):
            if isinstance(intent, ComputeIntent):
                steps.append(intent)
            elif not intent.path.startswith(MOUNT):
                continue
            elif isinstance(intent, FlushIntent):
                bundles = collector.pop_pending_closure(intent.uuid)
                steps.append(
                    FlushWork(
                        primary=intent,
                        bundles=bundles,
                        ancestor_data=_ancestor_data(collector, intent, bundles),
                    )
                )
            else:
                steps.append(intent)
    return Replay(steps=tuple(steps), file_uuids=collector.file_uuids())


def _ancestor_data(
    collector: PassCollector, primary: FlushIntent, bundles
) -> List[FlushIntent]:
    """Mount file ancestors in a flush's closure, as of that flush: each
    one's data must ride along if no earlier flush stored it (written but
    not closed when a reader consumed it).  Local (off-mount) files
    contribute provenance only."""
    extra: List[FlushIntent] = []
    for bundle in bundles:
        if bundle.uuid == primary.uuid:
            continue
        path = collector.path_of(bundle.uuid)
        if path is None or not path.startswith(MOUNT):
            continue
        size = collector.file_size(path)
        if size is None:
            continue
        ref = collector.versions.current(bundle.uuid)
        extra.append(
            FlushIntent(
                path=path,
                uuid=bundle.uuid,
                ref=ref,
                blob=Blob.synthetic(size, f"{path}@{ref.version}"),
            )
        )
    return extra


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


def _charge_compute(
    account: CloudAccount, compute: Union[ComputeEvent, ComputeIntent]
) -> float:
    """Advance the clock by application compute, scaled by the
    environment; returns the seconds charged."""
    env = account.profile.environment
    dt = compute.seconds * env.cpu_factor
    if compute.memory_bound:
        dt *= env.memory_penalty
    account.clock.advance(dt)
    return dt


class PlainS3fs:
    """The S3fs baseline: data only, no provenance."""

    def __init__(self, account: CloudAccount):
        self.account = account
        account.s3.create_bucket(DATA_BUCKET)
        self._cache: Set[str] = set()
        self._sizes: Dict[str, int] = {}

    def run(self, trace: SyscallTrace, configuration: str = "s3fs") -> RunResult:
        """Execute a trace against S3, returning measurements."""
        window = _MeterWindow(self.account)
        compute = 0.0
        for event in trace:
            if isinstance(event, ComputeEvent):
                compute += _charge_compute(self.account, event)
            elif isinstance(event, ReadEvent):
                if event.path.startswith(MOUNT):
                    self._read(event.path)
            elif isinstance(event, WriteEvent):
                self._sizes[event.path] = event.size
                self._cache.add(event.path)
            elif isinstance(event, (CloseEvent, FlushEvent)):
                if event.path.startswith(MOUNT):
                    self._flush(event.path)
            elif isinstance(event, UnlinkEvent):
                if event.path.startswith(MOUNT):
                    self.account.s3.delete(DATA_BUCKET, data_key(event.path))
                self._cache.discard(event.path)
                self._sizes.pop(event.path, None)

        return window.result(configuration, compute)

    def _read(self, path: str) -> None:
        if path in self._cache:
            return
        # FUSE lookup: getattr (HEAD) precedes the data read.
        try:
            self.account.s3.head(DATA_BUCKET, data_key(path))
            self.account.s3.get(DATA_BUCKET, data_key(path))
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
            self.account.s3.head(DATA_BUCKET, data_key(path))
        except NoSuchKeyError:
            pass
        self.account.s3.put(DATA_BUCKET, data_key(path), blob)


class PAS3fs:
    """Provenance-Aware S3fs: replays a collected trace through a protocol."""

    def __init__(self, account: CloudAccount, protocol: StorageProtocol):
        self.account = account
        self.protocol = protocol
        self._cache: Set[str] = set()
        #: mount paths deleted during the run (for persistence checks).
        self.deleted_paths: List[str] = []

    def run(self, replay: Replay, configuration: str = "") -> RunResult:
        """Replay a collected trace, flushing through the protocol.  The
        protocol's asynchronous work (P3's commit daemon) runs in
        :meth:`finalize`, which callers invoke separately so the elapsed
        time matches the paper's accounting."""
        window = _MeterWindow(self.account)
        compute = 0.0
        for step in replay.steps:
            if isinstance(step, ComputeIntent):
                compute += _charge_compute(self.account, step)
            elif isinstance(step, ReadIntent):
                self._read(step)
            elif isinstance(step, FlushWork):
                self._flush(step)
            else:
                self.protocol.delete(step)
                self.deleted_paths.append(step.path)
                self._cache.discard(step.path)

        return window.result(configuration or self.protocol.name, compute)

    def finalize(self) -> None:
        """Drain asynchronous protocol work (P3's commit daemon)."""
        self.protocol.finalize()

    # -- step handlers -------------------------------------------------------

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

    def _flush(self, work: FlushWork) -> None:
        path = work.primary.path
        self._cache.add(path)
        # getattr before the upload, matching the FUSE write-back path.
        try:
            self.account.s3.head(self.protocol.bucket, data_key(path))
        except NoSuchKeyError:
            pass
        unstored = [
            intent
            for intent in work.ancestor_data
            if self.protocol.data_stored_version(intent.uuid) is None
        ]
        self.protocol.flush(replace(work, ancestor_data=unstored))
