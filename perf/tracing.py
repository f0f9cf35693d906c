"""Span recording for the traced benchmark run.

Nothing under ``src/`` knows about this module: spans come from thin
wrappers that :func:`install` puts, at run time, around public callables
of the stack (``prepare_select``, the services' ``*_request(...).apply``,
``build_routed_requests`` at the names its callers look up,
``IngestGateway.submit``/``flush_pending``,
``ParallelScheduler.execute_batch``, ``SimKernel.run``, ...).  A span is
``(id, parent, op, name, start, end)``; spans of one operation (a select
chain, a gateway window, an HTTP request, a kernel slice) share ``op``.
Spans stay in memory and are written out once, when the run ends.  A
layer's self time is its span's duration minus its direct children's.

End-to-end numbers are measured with :class:`NullTracer`, whose methods
do nothing, and with no wrapper installed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Tuple

_NULL = nullcontext()


class NullTracer:
    """The tracer of an untraced run: every call is a no-op."""

    enabled = False

    def op(self, name: str):
        return _NULL

    def span(self, name: str):
        return _NULL

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Tracer:
    """Records spans and counts in memory."""

    enabled = True

    def __init__(self) -> None:
        #: ``[id, parent, op, name, start, end]`` per span, in start order.
        self.spans: List[list] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}
        #: Names of the root spans, one per kind of operation.
        self.op_names = set()
        self._stack: List[int] = []
        self._op = 0
        self._ops = 0

    @contextmanager
    def op(self, name: str):
        """The root span of one operation; spans opened inside share its id."""
        self.op_names.add(name)
        self._ops += 1
        self._op = self._ops
        with self.span(name):
            yield
        self._op = 0

    @contextmanager
    def span(self, name: str):
        ident = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [ident, parent, self._op, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(ident)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- reading the trace -----------------------------------------------------

    def totals(self, start: int = 0) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: ``(count, total seconds, self seconds)``, over
        the spans recorded from index ``start`` on."""
        child_time = [0.0] * len(self.spans)
        for _ident, parent, _op, _name, began, ended in self.spans:
            if parent >= 0:
                child_time[parent] += ended - began
        out: Dict[str, Tuple[int, float, float]] = {}
        for ident, _parent, _op, name, start, end in self.spans[start:]:
            count, total, self_time = out.get(name, (0, 0.0, 0.0))
            duration = end - start
            out[name] = (
                count + 1,
                total + duration,
                self_time + duration - child_time[ident],
            )
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )


# --------------------------------------------------------------------------
# Wrappers
# --------------------------------------------------------------------------

def _owners(cls: type, attr: str) -> Iterable[type]:
    """``cls`` and every subclass that defines ``attr`` itself (the local
    backend overrides some request builders of the simulated services)."""
    seen = []
    stack = [cls]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.append(current)
        stack.extend(current.__subclasses__())
    return [c for c in seen if attr in c.__dict__]


def _wrap_call(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Span around every call of ``owner.attr`` (a function or method)."""
    original = getattr(owner, attr)

    def traced(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)


def _wrap_apply(tracer: Tracer, cls: type, attr: str, name, after=None) -> None:
    """Span around the ``apply`` of every request ``cls.attr`` builds.

    ``name`` is the span name, or a callable of the builder's arguments
    that returns it; ``after(result)`` takes counts from what the apply
    returned."""
    for owner in _owners(cls, attr):
        original = owner.__dict__[attr]

        def builder(*args, _original=original, **kwargs):
            request = _original(*args, **kwargs)
            inner = request.apply
            span_name = name(*args, **kwargs) if callable(name) else name

            def apply(start, finish):
                with tracer.span(span_name):
                    result = inner(start, finish)
                if after is not None:
                    after(result)
                return result

            request.apply = apply
            return request

        setattr(owner, attr, builder)


def install(tracer: Tracer) -> None:
    """Put the wrappers in place.  Import of the local backend comes
    first so its service subclasses are known."""
    import repro.backends.local  # noqa: F401 - registers the subclasses
    import repro.cloud.simpledb as simpledb
    import repro.core.commit_daemon as commit_daemon
    import repro.query.engine as query_engine
    import repro.service.gateway as gateway
    import repro.workloads.fleet as fleet
    from repro.cloud.network import ParallelScheduler
    from repro.cloud.s3 import S3Service
    from repro.cloud.sqs import SQSService
    from repro.core.protocol_base import DomainRouter
    from repro.service.cache import CachedQueryEngine
    from repro.sim import SimKernel

    # Select path: parse, then one apply per page.
    for module in (simpledb, fleet, query_engine):
        _wrap_call(tracer, module, "prepare_select", "cloud.simpledb.parse")

    def select_name(_service, _expression, next_token=""):
        return (
            "cloud.simpledb.next_page" if next_token
            else "cloud.simpledb.first_page"
        )

    _wrap_apply(
        tracer, simpledb.SimpleDBService, "select_request", select_name,
        after=lambda page: tracer.count("select.rows", len(page.rows)),
    )
    _wrap_call(tracer, simpledb.SimpleDBService, "explain", "cloud.simpledb.plan")

    # Ingest path: request building, Bloom feeding, scheduling, applies.
    for module in (gateway, commit_daemon):
        _wrap_call(
            tracer, module, "build_routed_requests",
            "core.sdb_items.build_requests",
        )
    for owner in _owners(DomainRouter, "note_indexed_items"):
        original = owner.__dict__["note_indexed_items"]

        def note(self, domain, items, _original=original):
            tracer.count("ingest.items", len(items))
            tracer.count("ingest.pairs", sum(len(pairs) for _, pairs in items))
            tracer.count("ingest.items." + domain, len(items))
            with tracer.span("service.sharding.bloom_note"):
                return _original(self, domain, items)

        owner.note_indexed_items = note
    _wrap_call(tracer, gateway.IngestGateway, "submit", "service.gateway.submit")
    _wrap_call(
        tracer, gateway.IngestGateway, "flush_pending", "service.gateway.flush"
    )
    _wrap_call(
        tracer, ParallelScheduler, "execute_batch", "cloud.network.schedule"
    )
    _wrap_apply(
        tracer, simpledb.SimpleDBService, "batch_put_request",
        "cloud.simpledb.put_apply",
    )
    _wrap_apply(tracer, S3Service, "put_request", "cloud.s3.put_apply")

    # P3: the WAL queue and the kernel.
    _wrap_apply(tracer, SQSService, "send_request", "cloud.sqs.send_apply")

    def received(messages) -> None:
        tracer.count("sqs.receives")
        tracer.count("sqs.messages", len(messages))
        if not messages:
            tracer.count("sqs.empty_receives")

    _wrap_apply(
        tracer, SQSService, "receive_request", "cloud.sqs.receive_apply",
        after=received,
    )
    _wrap_call(tracer, SimKernel, "run", "sim.kernel.run")

    # The front end's cached query engine, server side.
    for attr, name in (
        ("q2_object_provenance", "query.engine.q2"),
        ("q3_direct_outputs", "query.engine.q3"),
        ("q4_all_descendants", "query.engine.q4"),
    ):
        _wrap_call(tracer, CachedQueryEngine, attr, name)
