"""Causality-based versioning.

PASS carefully creates logical versions of objects so the provenance graph
stays acyclic even when multiple processes update the same files (§4.2 of
the paper, after Muniswamy-Reddy & Holland, *Causality-Based Versioning*,
FAST '09).

The rules implemented here are the classic freeze/thaw scheme:

- every object starts at version 0,
- a *read* freezes the reader-visible version: once anyone has observed a
  version, later writes must not mutate it in place,
- a *write* to a frozen version creates version ``v+1`` (with a VERSION
  edge to ``v``); writes by the same writer to an unfrozen version
  coalesce (no version explosion on sequential appends),
- a write by a *different* process than the current version's writer also
  creates a new version (distinct provenance: the two writes have
  different ancestries),
- a process that reads anything after having written must itself be
  re-versioned before the read is recorded — otherwise ``write(P→F);
  read(F→P)`` would put a cycle between P and F.

The manager only decides version numbers; the collector turns the
decisions into nodes and edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.provenance.graph import NodeRef


@dataclass
class _ObjectState:
    """Versioning state of one object."""

    version: int = 0
    frozen: bool = False
    #: uuid of the process that wrote the current version (None = untouched).
    writer: Optional[str] = None
    #: Whether the current version has received any write.
    written: bool = False


@dataclass
class VersionDecision:
    """Outcome of a read/write: the version to use, and whether a new
    version node (plus its VERSION edge) must be created."""

    ref: NodeRef
    new_version: bool
    previous: Optional[NodeRef] = None


class VersionManager:
    """Tracks current versions and applies the freeze/thaw rules."""

    def __init__(self) -> None:
        self._objects: Dict[str, _ObjectState] = {}

    def _state(self, uuid: str) -> _ObjectState:
        return self._objects.setdefault(uuid, _ObjectState())

    def current(self, uuid: str) -> NodeRef:
        """Current version ref of an object (version 0 if untouched)."""
        return NodeRef(uuid, self._state(uuid).version)

    def on_read(self, reader_uuid: str, target_uuid: str) -> VersionDecision:
        """A process (``reader_uuid``) reads ``target_uuid``.

        Freezes the target's current version and returns it; never creates
        a new target version.
        """
        state = self._state(target_uuid)
        state.frozen = True
        self._state(reader_uuid)  # materialize the reader
        return VersionDecision(NodeRef(target_uuid, state.version), new_version=False)

    def on_write(self, writer_uuid: str, target_uuid: str) -> VersionDecision:
        """A process (``writer_uuid``) writes ``target_uuid``.

        Returns the version the write lands in, creating a new version
        when the current one is frozen or owned by a different writer.
        """
        state = self._state(target_uuid)
        # A frozen version must never mutate — even a never-written one:
        # a reader that observed the (pre-existing) version 0 must not see
        # it replaced in place, or reader and writer would form a cycle.
        needs_new = state.frozen or (state.written and state.writer != writer_uuid)
        previous = NodeRef(target_uuid, state.version) if needs_new else None
        if needs_new:
            state.version += 1
            state.frozen = False
        state.written = True
        state.writer = writer_uuid
        return VersionDecision(
            NodeRef(target_uuid, state.version),
            new_version=needs_new,
            previous=previous,
        )

    def on_reader_taint(self, process_uuid: str) -> VersionDecision:
        """A process reads after having written: re-version the process so
        the read dependency lands on a fresh process node and no cycle can
        form through the process's earlier outputs."""
        state = self._state(process_uuid)
        if not state.written:
            return VersionDecision(
                NodeRef(process_uuid, state.version), new_version=False
            )
        previous = NodeRef(process_uuid, state.version)
        state.version += 1
        state.written = False
        state.frozen = False
        state.writer = None
        return VersionDecision(
            NodeRef(process_uuid, state.version), new_version=True, previous=previous
        )

    def freeze(self, uuid: str) -> None:
        """Freeze an object's current version because it was made durable
        (flushed/closed): a persisted version must not mutate in place, so
        the next write will create a new version.  PASS freezes on
        durability events as well as on reads."""
        state = self._state(uuid)
        if state.written:
            state.frozen = True

    def mark_process_wrote(self, process_uuid: str) -> None:
        """Record that a process produced output in its current version."""
        state = self._state(process_uuid)
        state.written = True
        state.writer = process_uuid

    def version_count(self, uuid: str) -> int:
        """Number of versions created so far (current version + 1)."""
        if uuid not in self._objects:
            return 0
        return self._objects[uuid].version + 1
