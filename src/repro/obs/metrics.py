"""Virtual-clock metrics: counters, gauges, and streaming histograms.

Every metric lives in a :class:`MetricsRegistry` keyed by ``(name,
labels)``.  Labels scope a metric to a daemon, a shard domain, a
gateway, or a protocol, so five instances of the same component can
share one metric name without clobbering each other.  Nothing in here
reads a clock — time enters only through :meth:`MetricsRegistry.scrape`,
which the simulation kernel drives as an ordinary (zero-virtual-cost)
process, so the resulting time series are a pure function of the seed.

Histograms keep their observations sorted (``bisect.insort``) and
answer nearest-rank percentiles, matching the convention used by the
benchmark suite's ``_percentile`` helper.

When a registry is constructed with ``enabled=False`` every factory
returns a shared null instrument whose mutators are no-ops, so call
sites never need an ``if telemetry:`` guard — instrumentation is
unconditional and free to switch off.
"""

from __future__ import annotations

import json
import math
from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Render ``name{a=1,b=x}`` (labels sorted), or just ``name``."""
    items = _label_key(labels)
    if not items:
        return name
    inner = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value, set by its owner."""

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = dict(labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A streaming distribution with nearest-rank percentiles."""

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = dict(labels)
        self._values: List[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        insort(self._values, value)
        self.sum += value

    @property
    def count(self) -> int:
        return len(self._values)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile; ``None`` while empty."""
        if not self._values:
            return None
        # Nearest-rank: ceil(p/100 * n), clamped to [1, n].
        rank = min(len(self._values), max(1, math.ceil(p / 100.0 * len(self._values))))
        return self._values[rank - 1]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99)

    def summary(self) -> Dict[str, Any]:
        if not self._values:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self._values[0],
            "max": self._values[-1],
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _NullCounter(Counter):
    def __init__(self):
        super().__init__("null", {})

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def __init__(self):
        super().__init__("null", {})

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def __init__(self):
        super().__init__("null", {})

    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """Get-or-create registry of labelled instruments plus scraped series.

    ``gauge_fn`` registers a *callback* gauge: the callable is invoked at
    snapshot/scrape time, which lets existing stats structs
    (``CacheStats``, ``SelectEngineStats``, queue depths, billing) feed
    the registry without being rewritten.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._gauge_fns: Dict[Tuple[str, LabelItems], Callable[[], float]] = {}
        #: metric key -> list of (scrape time, value) samples.
        self.series: Dict[str, List[Tuple[float, Any]]] = {}
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return self._null_counter
        key = (name, _label_key(labels))
        if key not in self._counters:
            self._counters[key] = Counter(name, labels)
        return self._counters[key]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        key = (name, _label_key(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge(name, labels)
        return self._gauges[key]

    def histogram(self, name: str, **labels: Any) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        key = (name, _label_key(labels))
        if key not in self._histograms:
            self._histograms[key] = Histogram(name, labels)
        return self._histograms[key]

    def histograms_named(self, name: str) -> List[Histogram]:
        """Every histogram registered under ``name``, across all label
        sets — how a supervisor polls the commit-lag distribution over a
        whole daemon pool without knowing each member's label."""
        return self._named(self._histograms, name)

    def counters_named(self, name: str) -> List[Counter]:
        """Every counter registered under ``name``, across all label
        sets."""
        return self._named(self._counters, name)

    def _named(
        self, instruments: Dict[Tuple[str, LabelItems], Any], name: str
    ) -> List:
        if not self.enabled:
            return []
        return [
            instrument
            for (registered, _items), instrument in sorted(instruments.items())
            if registered == name
        ]

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: Any) -> None:
        """Register a callback sampled at snapshot/scrape time.
        Re-registering the same (name, labels) replaces the callback."""
        if not self.enabled:
            return
        self._gauge_fns[(name, _label_key(labels))] = fn

    def snapshot(self) -> Dict[str, Any]:
        """All instruments, rendered to plain JSON-able values, keyed by
        ``name{labels}`` and sorted for byte-stable dumps."""
        if not self.enabled:
            return {}
        out: Dict[str, Any] = {}
        for (name, items), counter in self._counters.items():
            out[metric_key(name, dict(items))] = counter.value
        for (name, items), gauge in self._gauges.items():
            out[metric_key(name, dict(items))] = gauge.value
        for (name, items), fn in self._gauge_fns.items():
            out[metric_key(name, dict(items))] = fn()
        for (name, items), histogram in self._histograms.items():
            out[metric_key(name, dict(items))] = histogram.summary()
        return dict(sorted(out.items()))

    def scrape(self, now: float) -> None:
        """Append one sample per metric to the time series at ``now``."""
        if not self.enabled:
            return
        for key, value in self.snapshot().items():
            self.series.setdefault(key, []).append((now, value))

    def dump(self) -> str:
        """Deterministic JSON dump of the final snapshot (sorted keys)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2, default=str)

    def series_dump(self) -> str:
        """Deterministic JSON dump of the scraped time series."""
        return json.dumps(self.series, sort_keys=True, indent=2, default=str)
