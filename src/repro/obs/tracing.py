"""Record-lifecycle tracing for provenance batches.

Each P3 flush opens a :class:`RecordTrace` keyed by its transaction id;
item names (``uuid_version``) and record uuids are *aliases* onto the
same trace, so any tier that only knows an item name — SimpleDB marking
visibility, a reader observing a uuid — lands its mark on the right
transaction without threading a context object through every call.

The canonical stage names trace a batch end-to-end::

    client.emit       client hands records to the WAL / gateway
    gateway.coalesce  ingest gateway folds the record into a window
    wal.logged        every SQS log message accepted (max sent_at)
    daemon.dequeue    commit daemon first receives a message of the txn
    sdb.put           daemon's SimpleDB batch-put finished
    commit.done       commit record written (committed_at)
    sdb.visible       last item of the txn visible to eventual reads
    read.first        a reader first observes a uuid of the txn

Commit lag and read-your-writes staleness then *fall out* as span
queries (``wal.logged → commit.done`` and ``wal.logged → read.first``)
instead of bespoke bookkeeping — and the test suite pins that the span
answers equal the legacy ``CommitRecord`` numbers exactly.

Retention: a trace is *open* until the component that owns its last
stage closes it (the commit daemon after ``commit.done``, the ingest
gateway after ``gateway.coalesce``).  A closed trace waits in a ring of
the last :data:`RETAINED_TRACES` closed ones, where late marks (a
reader's ``read.first``, a duplicate delivery's second ``commit.done``)
still land; when the ring pushes it out it is *evicted* with its
aliases, and marks on it are dropped like marks on any unknown key.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

CLIENT_EMIT = "client.emit"
GATEWAY_COALESCE = "gateway.coalesce"
WAL_LOGGED = "wal.logged"
DAEMON_DEQUEUE = "daemon.dequeue"
SDB_PUT = "sdb.put"
COMMIT_DONE = "commit.done"
SDB_VISIBLE = "sdb.visible"
READ_FIRST = "read.first"

#: Canonical lifecycle order, used by exporters to sort span marks.
STAGES = (
    CLIENT_EMIT,
    GATEWAY_COALESCE,
    WAL_LOGGED,
    DAEMON_DEQUEUE,
    SDB_PUT,
    COMMIT_DONE,
    SDB_VISIBLE,
    READ_FIRST,
)

#: How many closed traces the tracer keeps for late marks and queries.
RETAINED_TRACES = 256


class RecordTrace:
    """The lifecycle of one provenance batch (one WAL transaction)."""

    def __init__(self, key: str, attrs: Dict[str, Any]):
        self.key = key
        self.attrs = dict(attrs)
        #: Every mark, in arrival order: (stage, t).
        self.marks: List[Tuple[str, float]] = []
        #: First time each stage was reached.
        self.first: Dict[str, float] = {}
        #: Last time each stage was reached (``sdb.visible`` differs per
        #: item, so "the txn is visible" is the *max* over its items).
        self.last: Dict[str, float] = {}
        #: Alias keys routed here, deleted with the trace on eviction.
        self.aliases: List[str] = []

    def mark(self, stage: str, t: float) -> None:
        self.marks.append((stage, t))
        if stage not in self.first or t < self.first[stage]:
            self.first[stage] = t
        if stage not in self.last or t > self.last[stage]:
            self.last[stage] = t

    def span(self, start: str, end: str) -> Optional[float]:
        """Seconds from first ``start`` mark to first ``end`` mark, or
        ``None`` when either stage never happened."""
        if start not in self.first or end not in self.first:
            return None
        return self.first[end] - self.first[start]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "attrs": dict(sorted(self.attrs.items())),
            "first": dict(sorted(self.first.items())),
            "last": dict(sorted(self.last.items())),
            "marks": [[stage, t] for stage, t in self.marks],
        }


class Tracer:
    """Registry of record traces with alias resolution.

    Only :meth:`begin` creates a trace; every mark lands on the trace
    its key or alias resolves to, or is dropped — a single dict probe
    when the key was never registered, so bulk workloads that don't
    trace pay nothing.  Shared services (SimpleDB, readers) call
    ``mark_if_traced``, which also says whether the mark landed.

    ``_traces`` holds the open traces and the retained closed ones in
    creation order; ``_closed`` is the ring of retained keys, oldest
    first.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._traces: Dict[str, RecordTrace] = {}
        self._aliases: Dict[str, str] = {}
        self._closed: "OrderedDict[str, None]" = OrderedDict()

    def begin(self, key: str, **attrs: Any) -> Optional[RecordTrace]:
        """Open the trace at ``key``; a retained closed one reopens."""
        if not self.enabled:
            return None
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = RecordTrace(key, attrs)
        else:
            trace.attrs.update(attrs)
            self._closed.pop(key, None)
        return trace

    def alias(self, alias: str, key: str) -> None:
        """Route future marks on ``alias`` to the trace at ``key``."""
        if not self.enabled or self._aliases.get(alias) == key:
            return
        self._aliases[alias] = key
        trace = self._traces.get(key)
        if trace is not None:
            trace.aliases.append(alias)

    def close(self, key: str) -> None:
        """The owner of the trace's last stage is done with it: retain it
        in the ring, evicting the oldest retained trace and its aliases
        when the ring is full.  Closing a closed or unknown key does
        nothing."""
        trace = self.resolve(key)
        if trace is None or trace.key in self._closed:
            return
        self._closed[trace.key] = None
        if len(self._closed) > RETAINED_TRACES:
            evicted = self._traces.pop(self._closed.popitem(last=False)[0])
            for alias in evicted.aliases:
                # A uuid re-aliased by a later flush belongs to that one.
                if self._aliases.get(alias) == evicted.key:
                    del self._aliases[alias]

    def resolve(self, key: str) -> Optional[RecordTrace]:
        canonical = self._aliases.get(key, key)
        return self._traces.get(canonical)

    def mark(self, key: str, stage: str, t: float) -> None:
        """Mark the trace ``key`` resolves to — the owners' call, on a
        trace they began."""
        self.mark_if_traced(key, stage, t)

    def mark_if_traced(self, key: str, stage: str, t: float) -> bool:
        """Mark only when ``key`` already maps to a trace; never creates
        one.  Returns whether a mark landed."""
        if not self.enabled:
            return False
        trace = self.resolve(key)
        if trace is None:
            return False
        trace.mark(stage, t)
        return True

    def mark_first(self, key: str, stage: str, t: float) -> bool:
        """Like :meth:`mark_if_traced`, but only the *first* occurrence
        of ``stage`` lands — for repeated observations (a reader re-seeing
        the same uuid every poll) where only the first one is the event."""
        if not self.enabled:
            return False
        trace = self.resolve(key)
        if trace is None or stage in trace.first:
            return False
        trace.mark(stage, t)
        return True

    def traces(self) -> List[RecordTrace]:
        """Open and retained traces, in creation order."""
        return list(self._traces.values())

    def get(self, key: str) -> Optional[RecordTrace]:
        return self.resolve(key)

    # -- lifecycle queries ------------------------------------------------

    def spans(self, start: str, end: str) -> List[Tuple[str, float]]:
        """(key, seconds) for every open or retained trace that reached
        both stages; evicted traces are gone."""
        out = []
        for trace in self._traces.values():
            span = trace.span(start, end)
            if span is not None:
                out.append((trace.key, span))
        return out

    def commit_lags(self) -> List[Tuple[str, float]]:
        """Per-transaction commit lag, derived purely from trace marks
        (open and retained traces)."""
        return self.spans(WAL_LOGGED, COMMIT_DONE)

    def staleness(self) -> List[Tuple[str, float]]:
        """Read-your-writes staleness: log acceptance → first read (open
        and retained traces)."""
        return self.spans(WAL_LOGGED, READ_FIRST)

    def as_dict(self) -> Dict[str, Any]:
        """Open and retained traces by key."""
        return {key: self._traces[key].as_dict() for key in sorted(self._traces)}
