"""Timeline export: kernel runs as Chrome trace-event JSON.

The exporter renders a telemetry hub's event log, record traces, and
scraped metric series into the Chrome trace-event format (the JSON
flavour that ``chrome://tracing`` and https://ui.perfetto.dev load
directly):

* each (process name, incarnation) becomes a named thread lane, so a
  respawned daemon shows up as a *new* lane next to its dead ancestor;
* ``proc.slice`` events become ``X`` (complete) slices — one per
  charged kernel resume, spanning the virtual time the step consumed;
* fault injections (``fault.crash`` / ``fault.respawn`` /
  ``fault.degrade.*``) and process lifecycle edges become ``i``
  (instant) markers;
* control-plane decisions (``supervisor.scale_up`` / ``scale_down`` /
  ``window_adjust`` / ``backoff``) get their own ``supervisor`` lane of
  instant markers, so autoscaling actions line up against the pool
  lanes they created;
* record-lifecycle traces become nestable async spans (``b``/``n``/
  ``e``) so a transaction's client-emit → visibility arc reads as one
  horizontal bar with stage ticks — the open traces and the tracer's
  ring of retained closed ones (:data:`~repro.obs.tracing.RETAINED_TRACES`);
  evicted traces are gone;
* scalar metric series from the scraper become ``C`` (counter) tracks.

Virtual seconds map to trace microseconds (``ts = t * 1e6``).  All
output is sorted-key JSON built in deterministic order, so two runs of
the same seed export byte-identical timelines.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.events import EventLog

PID = 1
FAULT_TID = 0
_US = 1_000_000  # virtual seconds -> trace microseconds


def _us(t: float) -> float:
    return round(t * _US, 3)


def _thread_lanes(events: EventLog) -> Dict[Tuple[str, int], int]:
    """Assign a tid per (process name, incarnation), in spawn order."""
    lanes: Dict[Tuple[str, int], int] = {}
    for event in events.of_kind("proc.spawn", "proc.slice"):
        key = (event["name"], event.get("incarnation", 0))
        if key not in lanes:
            lanes[key] = len(lanes) + 1  # tid 0 is the fault lane
    return lanes


def chrome_trace_events(telemetry) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list from a telemetry hub."""
    out: List[Dict[str, Any]] = []
    lanes = _thread_lanes(telemetry.events)
    supervisor_events = telemetry.events.of_kind("supervisor.")
    supervisor_tid = len(lanes) + 1 if supervisor_events else None

    out.append(
        {
            "ph": "M",
            "pid": PID,
            "tid": FAULT_TID,
            "name": "thread_name",
            "args": {"name": "faults"},
        }
    )
    for (name, incarnation), tid in lanes.items():
        label = name if incarnation == 0 else f"{name}#{incarnation}"
        out.append(
            {
                "ph": "M",
                "pid": PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
    if supervisor_tid is not None:
        out.append(
            {
                "ph": "M",
                "pid": PID,
                "tid": supervisor_tid,
                "name": "thread_name",
                "args": {"name": "supervisor"},
            }
        )

    for event in telemetry.events:
        if event.kind == "proc.slice":
            tid = lanes[(event["name"], event.get("incarnation", 0))]
            start = event["start"]
            out.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": tid,
                    "name": event["name"],
                    "cat": "proc",
                    "ts": _us(start),
                    "dur": _us(event.t - start),
                }
            )
        elif event.kind in ("proc.done", "proc.crash"):
            tid = lanes.get((event["name"], event.get("incarnation", 0)), FAULT_TID)
            out.append(
                {
                    "ph": "i",
                    "pid": PID,
                    "tid": tid,
                    "name": event.kind,
                    "cat": "proc",
                    "s": "t",
                    "ts": _us(event.t),
                    "args": dict(event.fields),
                }
            )
        elif event.kind.startswith("fault."):
            out.append(
                {
                    "ph": "i",
                    "pid": PID,
                    "tid": FAULT_TID,
                    "name": event.kind,
                    "cat": "fault",
                    "s": "p",  # process-scoped: draws a full-height line
                    "ts": _us(event.t),
                    "args": dict(event.fields),
                }
            )
        elif event.kind.startswith("supervisor."):
            out.append(
                {
                    "ph": "i",
                    "pid": PID,
                    "tid": supervisor_tid,
                    "name": event.kind,
                    "cat": "supervisor",
                    "s": "t",
                    "ts": _us(event.t),
                    "args": dict(event.fields),
                }
            )

    # Record-lifecycle traces as nestable async spans.
    for trace in telemetry.tracer.traces():
        marks = sorted(trace.marks, key=lambda mark: (mark[1], mark[0]))
        if len(marks) < 2:
            continue
        first_t = marks[0][1]
        last_t = marks[-1][1]
        common = {"pid": PID, "cat": "record", "id": trace.key}
        out.append(
            {"ph": "b", "name": trace.key, "ts": _us(first_t), **common}
        )
        for stage, t in marks:
            out.append(
                {
                    "ph": "n",
                    "name": stage,
                    "ts": _us(t),
                    **common,
                }
            )
        out.append({"ph": "e", "name": trace.key, "ts": _us(last_t), **common})

    # Scraped scalar series as counter tracks.
    for key in sorted(telemetry.metrics.series):
        samples = telemetry.metrics.series[key]
        for t, value in samples:
            if not isinstance(value, (int, float)):
                continue  # histogram summaries render poorly as counters
            out.append(
                {
                    "ph": "C",
                    "pid": PID,
                    "name": key,
                    "ts": _us(t),
                    "args": {"value": value},
                }
            )
    return out


def chrome_trace(telemetry) -> Dict[str, Any]:
    return {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(telemetry),
        "otherData": {"clock": "virtual", "unit": "1us = 1 virtual microsecond"},
    }


def chrome_trace_json(telemetry) -> str:
    """Byte-stable JSON text of the full timeline."""
    return json.dumps(chrome_trace(telemetry), sort_keys=True, indent=1)


def write_chrome_trace(telemetry, path: str) -> str:
    """Write a Perfetto-loadable timeline; returns ``path``."""
    with open(path, "w") as handle:
        handle.write(chrome_trace_json(telemetry))
        handle.write("\n")
    return path
