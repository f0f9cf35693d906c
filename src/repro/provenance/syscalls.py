"""Simulated system-call traces.

The PASS kernel observes application system calls; our substitute is a
deterministic event trace that workload generators produce and the
collector consumes.  Events carry enough detail for PASS-grade
provenance: process identity and arguments, file paths, byte counts, and
pure compute intervals (which the evaluation charges as application time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True, slots=True)
class SpawnEvent:
    """A process starts (fork+exec)."""

    pid: int
    name: str
    argv: Tuple[str, ...] = ()
    env: Tuple[Tuple[str, str], ...] = ()
    parent_pid: Optional[int] = None
    exec_path: Optional[str] = None


@dataclass(frozen=True, slots=True)
class ReadEvent:
    """A process reads from a file."""

    pid: int
    path: str
    size: int = 0


@dataclass(frozen=True, slots=True)
class WriteEvent:
    """A process writes to a file; ``size`` is the file size after the
    write (S3fs uploads whole objects, so the close-time size is what
    matters)."""

    pid: int
    path: str
    size: int


@dataclass(frozen=True, slots=True)
class CloseEvent:
    """A process closes a file it had open for writing — the moment
    PA-S3fs pushes data + provenance to the cloud."""

    pid: int
    path: str


@dataclass(frozen=True, slots=True)
class FlushEvent:
    """An explicit flush (fsync); same cloud behaviour as close, but the
    file stays open."""

    pid: int
    path: str


@dataclass(frozen=True, slots=True)
class UnlinkEvent:
    """A file is deleted (exercises data-independent persistence)."""

    pid: int
    path: str


@dataclass(frozen=True, slots=True)
class ExitEvent:
    """A process exits."""

    pid: int


@dataclass(frozen=True, slots=True)
class ComputeEvent:
    """Pure application compute time.

    ``memory_bound`` marks phases whose runtime balloons under UML's
    512 MB guest (the paper's Blast observation: 650 s native vs 1322 s
    under UML)."""

    pid: int
    seconds: float
    memory_bound: bool = False


Event = Union[
    SpawnEvent,
    ReadEvent,
    WriteEvent,
    CloseEvent,
    FlushEvent,
    UnlinkEvent,
    ExitEvent,
    ComputeEvent,
]


@dataclass
class SyscallTrace:
    """An ordered event stream plus summary statistics."""

    events: List[Event] = field(default_factory=list)

    def append(self, event: Event) -> None:
        self.events.append(event)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # -- summary statistics -------------------------------------------------

    def total_compute_seconds(self) -> float:
        return sum(e.seconds for e in self.events if isinstance(e, ComputeEvent))

    def total_bytes_written(self) -> int:
        """Bytes of file content at close time, summed over closes/flushes."""
        sizes: dict = {}
        total = 0
        for event in self.events:
            if isinstance(event, WriteEvent):
                sizes[event.path] = event.size
            elif isinstance(event, (CloseEvent, FlushEvent)):
                total += sizes.get(event.path, 0)
        return total

    def file_paths(self) -> List[str]:
        paths = []
        seen = set()
        for event in self.events:
            path = getattr(event, "path", None)
            if path is not None and path not in seen:
                seen.add(path)
                paths.append(path)
        return paths


class TraceBuilder:
    """Fluent helper workload generators use to assemble traces."""

    def __init__(self) -> None:
        self.trace = SyscallTrace()
        self._next_pid = 1000

    def spawn(
        self,
        name: str,
        argv: Sequence[str] = (),
        env: Sequence[Tuple[str, str]] = (),
        parent_pid: Optional[int] = None,
        exec_path: Optional[str] = None,
    ) -> int:
        """Spawn a process; returns its pid."""
        pid = self._next_pid
        self._next_pid += 1
        self.trace.append(
            SpawnEvent(
                pid=pid,
                name=name,
                argv=tuple(argv),
                env=tuple(env),
                parent_pid=parent_pid,
                exec_path=exec_path,
            )
        )
        return pid

    def read(self, pid: int, path: str, size: int = 0) -> "TraceBuilder":
        self.trace.append(ReadEvent(pid, path, size))
        return self

    def write(self, pid: int, path: str, size: int) -> "TraceBuilder":
        self.trace.append(WriteEvent(pid, path, size))
        return self

    def close(self, pid: int, path: str) -> "TraceBuilder":
        self.trace.append(CloseEvent(pid, path))
        return self

    def flush(self, pid: int, path: str) -> "TraceBuilder":
        self.trace.append(FlushEvent(pid, path))
        return self

    def write_close(self, pid: int, path: str, size: int) -> "TraceBuilder":
        """Write then immediately close (the common output pattern)."""
        return self.write(pid, path, size).close(pid, path)

    def unlink(self, pid: int, path: str) -> "TraceBuilder":
        self.trace.append(UnlinkEvent(pid, path))
        return self

    def exit(self, pid: int) -> "TraceBuilder":
        self.trace.append(ExitEvent(pid))
        return self

    def compute(
        self, pid: int, seconds: float, memory_bound: bool = False
    ) -> "TraceBuilder":
        self.trace.append(ComputeEvent(pid, seconds, memory_bound))
        return self
