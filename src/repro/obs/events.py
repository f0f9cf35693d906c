"""A structured event log on the virtual clock.

The simulation kernel (and anything else holding the telemetry hub)
appends :class:`Event` records — process lifecycle, fault injections,
degradation windows — each stamped with virtual time and a per-log
sequence number so ties at the same instant keep a total order.  The
log renders to JSONL for offline inspection and feeds the Chrome-trace
timeline exporter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Event:
    """One structured occurrence at virtual time ``t``."""

    t: float
    seq: int
    kind: str
    fields: Tuple[Tuple[str, Any], ...]

    def __getitem__(self, key: str) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"t": self.t, "seq": self.seq, "kind": self.kind}
        out.update(dict(self.fields))
        return out


class EventLog:
    """Append-only, virtually-timestamped, deterministic event stream."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[Event] = []
        self._seq = 0

    def emit(self, kind: str, t: float, **fields: Any) -> Optional[Event]:
        if not self.enabled:
            return None
        event = Event(t=t, seq=self._seq, kind=kind, fields=tuple(fields.items()))
        self._seq += 1
        self.events.append(event)
        return event

    def of_kind(self, *kinds: str) -> List[Event]:
        """Events whose kind matches exactly, or by ``prefix.`` if a kind
        ends with a dot (``of_kind("fault.")`` → every fault event)."""
        out = []
        for event in self.events:
            for kind in kinds:
                if event.kind == kind or (kind.endswith(".") and event.kind.startswith(kind)):
                    out.append(event)
                    break
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def to_jsonl(self) -> str:
        """One sorted-key JSON object per line — byte-stable per seed."""
        return "\n".join(
            json.dumps(event.as_dict(), sort_keys=True, default=str)
            for event in self.events
        )

    def write_jsonl(self, path: str) -> str:
        text = self.to_jsonl()
        with open(path, "w") as handle:
            handle.write(text)
            if text:
                handle.write("\n")
        return path
