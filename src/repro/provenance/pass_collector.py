"""The PASS collector.

Consumes a :class:`~repro.provenance.syscalls.SyscallTrace` and records
provenance exactly the way the PASS kernel does (§2.1 of the paper): a
``read`` adds a process→file dependency, a ``write`` adds a file→process
dependency (transitively linking outputs to inputs), and causality-based
versioning keeps the provenance acyclic.  The collector keeps no graph:
the dependencies are the xref records it emits, and the test suite's
DAG oracle topologically sorts them.

For every event the collector returns zero or more *intents* — the things
PA-S3fs must do against the cloud:

- :class:`ReadIntent` — the application read a file (a GET on cache miss),
- :class:`FlushIntent` — a close/flush: upload data + pending provenance,
- :class:`DeleteIntent` — an unlink: delete the data, keep the provenance,
- :class:`ComputeIntent` — pure application time to charge to the clock.

The collector also keeps per-object *pending bundles*: provenance records
generated but not yet flushed to the cloud.  ``repro.core.pas3fs.collect``
(the one caller of ``feed`` besides ``feed_trace``) drains them, with
their ancestor closure for multi-object causal ordering, at each flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.cloud.blob import Blob
from repro.errors import TraceError
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.syscalls import (
    CloseEvent,
    ComputeEvent,
    Event,
    ExitEvent,
    FlushEvent,
    ReadEvent,
    SpawnEvent,
    SyscallTrace,
    UnlinkEvent,
    WriteEvent,
)


@dataclass(frozen=True, slots=True)
class ReadIntent:
    """Application read: PA-S3fs serves it from cache or via GET."""

    path: str
    uuid: str
    size: int


@dataclass(frozen=True, slots=True)
class FlushIntent:
    """Close/flush: upload this object's data and pending provenance."""

    path: str
    uuid: str
    ref: NodeRef
    blob: Blob


@dataclass(frozen=True, slots=True)
class DeleteIntent:
    """Unlink: remove the data object; provenance must survive."""

    path: str
    uuid: str


@dataclass(frozen=True, slots=True)
class ComputeIntent:
    """Pure application compute time."""

    seconds: float
    memory_bound: bool


Intent = Union[ReadIntent, FlushIntent, DeleteIntent, ComputeIntent]


class PassCollector:
    """Builds provenance from syscall events and stages it for flushing."""

    def __init__(self) -> None:
        from repro.provenance.versioning import VersionManager

        self.versions = VersionManager()
        self._pending: Dict[str, ProvenanceBundle] = {}
        #: Name of every node created so far.
        self._names: Dict[NodeRef, str] = {}
        #: File version -> process versions it has an ``input`` record for.
        self._writers: Dict[NodeRef, Set[NodeRef]] = {}
        self._path_to_uuid: Dict[str, str] = {}
        self._uuid_to_path: Dict[str, str] = {}
        self._pid_to_uuid: Dict[int, str] = {}
        self._file_sizes: Dict[str, int] = {}
        self._uuid_counter = 0
        self._start_clock = 0.0

    # -- identity ------------------------------------------------------------

    def _new_uuid(self, prefix: str) -> str:
        self._uuid_counter += 1
        return f"{prefix}-{self._uuid_counter:06d}"

    def file_uuid(self, path: str) -> str:
        """Stable uuid for a path (created on first touch)."""
        uuid = self._path_to_uuid.get(path)
        if uuid is None:
            uuid = self._new_uuid("f")
            self._path_to_uuid[path] = uuid
            self._uuid_to_path[uuid] = path
        return uuid

    def process_uuid(self, pid: int) -> str:
        try:
            return self._pid_to_uuid[pid]
        except KeyError:
            raise TraceError(f"event references unspawned pid {pid}") from None

    def path_of(self, uuid: str) -> Optional[str]:
        return self._uuid_to_path.get(uuid)

    def file_size(self, path: str) -> Optional[int]:
        """Last written size of a path, or ``None`` if never written."""
        return self._file_sizes.get(path)

    def file_uuids(self) -> Dict[str, str]:
        """Path -> uuid of every file touched so far (a copy)."""
        return dict(self._path_to_uuid)

    # -- pending bundle management ----------------------------------------------

    def _record(self, record: ProvenanceRecord) -> None:
        bundle = self._pending.setdefault(
            record.subject.uuid, ProvenanceBundle(uuid=record.subject.uuid)
        )
        bundle.add(record)

    def pending_bundle(self, uuid: str) -> Optional[ProvenanceBundle]:
        """The not-yet-flushed records for one object, if any."""
        return self._pending.get(uuid)

    def pop_pending_closure(self, uuid: str) -> List[ProvenanceBundle]:
        """Remove and return the pending bundles of ``uuid`` and every
        pending ancestor it references, ordered ancestors-first.

        This is the unit of work a protocol flush must persist to keep
        multi-object causal ordering: an object's ancestors (and their
        provenance) reach the cloud before (or atomically with) the object
        itself (§3, §4.3).
        """
        ordered: List[ProvenanceBundle] = []
        visiting: Set[str] = {uuid}
        # Depth-first with an explicit stack (pipelines run thousands of
        # stages deep): a bundle is appended once all its xrefs are done.
        stack: List[Tuple[ProvenanceBundle, Iterator[NodeRef]]] = []
        bundle = self._pending.get(uuid)
        if bundle is not None:
            stack.append((bundle, iter(bundle.xrefs())))
        while stack:
            bundle, xrefs = stack[-1]
            for xref in xrefs:
                if xref.uuid in visiting:
                    continue
                visiting.add(xref.uuid)
                ancestor = self._pending.get(xref.uuid)
                if ancestor is not None:
                    stack.append((ancestor, iter(ancestor.xrefs())))
                    break
            else:
                stack.pop()
                ordered.append(bundle)
        for bundle in ordered:
            self._pending.pop(bundle.uuid, None)
        return ordered

    # -- node creation ---------------------------------------------------------------

    def _ensure_file_node(self, path: str) -> NodeRef:
        uuid = self.file_uuid(path)
        ref = self.versions.current(uuid)
        if ref not in self._names:
            self._names[ref] = path
            self._record(ProvenanceRecord(ref, "type", "file"))
            self._record(ProvenanceRecord(ref, "name", path))
        return ref

    def _new_file_version(self, path: str, previous: NodeRef, ref: NodeRef) -> None:
        self._names[ref] = path
        self._record(ProvenanceRecord(ref, "type", "file"))
        self._record(ProvenanceRecord(ref, "name", path))
        self._record(ProvenanceRecord(ref, "version-of", previous))

    def _new_process_version(self, name: str, previous: NodeRef, ref: NodeRef) -> None:
        self._names[ref] = name
        self._record(ProvenanceRecord(ref, "type", "proc"))
        self._record(ProvenanceRecord(ref, "name", name))
        self._record(ProvenanceRecord(ref, "version-of", previous))

    # -- event handlers ---------------------------------------------------------------

    def feed(self, event: Event) -> List[Intent]:
        """Process one event; returns the intents PA-S3fs must act on."""
        if isinstance(event, SpawnEvent):
            return self._on_spawn(event)
        if isinstance(event, ReadEvent):
            return self._on_read(event)
        if isinstance(event, WriteEvent):
            return self._on_write(event)
        if isinstance(event, (CloseEvent, FlushEvent)):
            return self._on_close(event)
        if isinstance(event, UnlinkEvent):
            return self._on_unlink(event)
        if isinstance(event, ComputeEvent):
            return [ComputeIntent(event.seconds, event.memory_bound)]
        if isinstance(event, ExitEvent):
            return []
        raise TraceError(f"unknown event type {type(event).__name__}")

    def feed_trace(self, trace: SyscallTrace) -> List[Intent]:
        """Process a whole trace; returns all intents in order."""
        intents: List[Intent] = []
        for event in trace:
            intents.extend(self.feed(event))
        return intents

    def _on_spawn(self, event: SpawnEvent) -> List[Intent]:
        uuid = self._new_uuid("p")
        self._pid_to_uuid[event.pid] = uuid
        ref = self.versions.current(uuid)
        self._names[ref] = event.name
        self._record(ProvenanceRecord(ref, "type", "proc"))
        self._record(ProvenanceRecord(ref, "name", event.name))
        self._record(ProvenanceRecord(ref, "pid", str(event.pid)))
        if event.argv:
            self._record(ProvenanceRecord(ref, "argv", " ".join(event.argv)))
        for key, value in event.env:
            self._record(ProvenanceRecord(ref, "env", f"{key}={value}"))
        if event.parent_pid is not None and event.parent_pid in self._pid_to_uuid:
            parent_uuid = self._pid_to_uuid[event.parent_pid]
            parent_ref = self.versions.current(parent_uuid)
            self._record(ProvenanceRecord(ref, "forkparent", parent_ref))
        if event.exec_path is not None:
            exec_ref = self._ensure_file_node(event.exec_path)
            self.versions.on_read(uuid, self.file_uuid(event.exec_path))
            self._record(ProvenanceRecord(ref, "exec", exec_ref))
        return []

    def _on_read(self, event: ReadEvent) -> List[Intent]:
        proc_uuid = self.process_uuid(event.pid)
        file_ref = self._ensure_file_node(event.path)
        file_uuid = self.file_uuid(event.path)

        # Read-after-write: re-version the process before recording the
        # dependency, so no cycle can form through its earlier outputs.
        taint = self.versions.on_reader_taint(proc_uuid)
        proc_ref = taint.ref
        if taint.new_version:
            assert taint.previous is not None
            self._new_process_version(
                self._names[taint.previous], taint.previous, proc_ref
            )

        decision = self.versions.on_read(proc_uuid, file_uuid)
        self._record(ProvenanceRecord(proc_ref, "input", decision.ref))
        size = event.size or self._file_sizes.get(event.path, 0)
        return [ReadIntent(event.path, file_uuid, size)]

    def _on_write(self, event: WriteEvent) -> List[Intent]:
        proc_uuid = self.process_uuid(event.pid)
        proc_ref = self.versions.current(proc_uuid)
        if proc_ref not in self._names:  # pragma: no cover - defensive
            raise TraceError(f"process node {proc_ref} missing")
        self._ensure_file_node(event.path)
        file_uuid = self.file_uuid(event.path)

        decision = self.versions.on_write(proc_uuid, file_uuid)
        if decision.new_version:
            assert decision.previous is not None
            self._new_file_version(event.path, decision.previous, decision.ref)
        file_ref = decision.ref
        # One input record per writer, however often it writes this version.
        writers = self._writers.setdefault(file_ref, set())
        if proc_ref not in writers:
            writers.add(proc_ref)
            self._record(ProvenanceRecord(file_ref, "input", proc_ref))
        self.versions.mark_process_wrote(proc_uuid)
        self._file_sizes[event.path] = event.size
        return []

    def _on_close(self, event) -> List[Intent]:
        uuid = self._path_to_uuid.get(event.path)
        if uuid is None:
            # Close of a file that was only read: nothing to upload.
            return []
        ref = self.versions.current(uuid)
        size = self._file_sizes.get(event.path, 0)
        blob = Blob.synthetic(size, f"{event.path}@{ref.version}")
        # Durability freezes the version: later writes start version v+1.
        self.versions.freeze(uuid)
        return [FlushIntent(event.path, uuid, ref, blob)]

    def _on_unlink(self, event: UnlinkEvent) -> List[Intent]:
        uuid = self._path_to_uuid.get(event.path)
        if uuid is None:
            return []
        ref = self.versions.current(uuid)
        if ref in self._names:
            self._record(ProvenanceRecord(ref, "unlinked", "true"))
        self._file_sizes.pop(event.path, None)
        return [DeleteIntent(event.path, uuid)]
