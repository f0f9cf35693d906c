"""The service tier's provenance read cache.

Provenance is append-mostly and query workloads are read-heavy (the
paper's §2.2 use cases — search ranking, debugging — re-run the same
ancestry lookups), so a small LRU in front of the query engines removes
repeated cloud round-trips entirely.  Correctness across writes is kept
the blunt-but-sound way: the gateway bumps the cache *generation* on
every ingest batch, and cached entries are keyed by generation, so any
write invalidates everything at once.  Between writes, repeated queries
are pure hits: zero cloud operations, zero virtual-time cost.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.query.engine import QueryStats


@dataclass
class CacheStats:
    """Hit/miss counters exposed by the service tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A bounded least-recently-used map with hit/miss accounting."""

    _MISS = object()

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Bumped on every write; keys embed it, so stale entries can
        #: never be returned — they just age out of the LRU.
        self._generation = 0

    def note_write(self) -> None:
        """Invalidate everything: subsequent lookups key a new generation.

        The old-generation entries are dropped eagerly — ``get``/``put``
        only ever touch the current generation, so after the bump every
        stored entry is unreachable.  Leaving them in place (the old
        behaviour) stranded up to ``capacity`` dead entries that inflated
        the ``cache.size`` gauge, held their answer objects alive, and
        burned ``capacity`` spurious LRU evictions (miscounted in
        ``stats.evictions``) before live entries filled the map again."""
        self._generation += 1
        self.stats.invalidations += 1
        self._entries.clear()

    def bind_metrics(self, registry, **labels) -> None:
        """Expose the hit/miss counters as callback gauges on a
        :class:`~repro.obs.metrics.MetricsRegistry` (labelled per owner,
        so several caches coexist)."""
        stats = self.stats
        registry.gauge_fn("cache.hits", lambda: stats.hits, **labels)
        registry.gauge_fn("cache.misses", lambda: stats.misses, **labels)
        registry.gauge_fn("cache.evictions", lambda: stats.evictions, **labels)
        registry.gauge_fn(
            "cache.invalidations", lambda: stats.invalidations, **labels
        )
        registry.gauge_fn("cache.size", lambda: len(self._entries), **labels)

    def _versioned(self, key: Hashable) -> Tuple[int, Hashable]:
        return (self._generation, key)

    def get(self, key: Hashable) -> Any:
        """Return the cached value or ``None``; counts a hit or a miss."""
        entry = self._entries.get(self._versioned(key), self._MISS)
        if entry is self._MISS:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(self._versioned(key))
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        versioned = self._versioned(key)
        self._entries[versioned] = value
        self._entries.move_to_end(versioned)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


def _cached_stats() -> QueryStats:
    """Stats for a query answered from the cache: no cloud traffic, no
    virtual time.  A fresh instance per hit — QueryStats is mutable and
    callers may accumulate into it."""
    return QueryStats(elapsed_seconds=0.0, bytes_transferred=0, operations=0)


class CachedQueryEngine:
    """Fronts a query engine (single-domain or sharded) with an LRU.

    The wrapped engine's Q1–Q4 signatures are preserved; cache keys are
    (query, arguments).  A hit returns the cached answer with zero-cost
    :class:`QueryStats`; a miss delegates and stores the result.  The
    cached answer object is shared — callers must not mutate it.
    """

    def __init__(self, engine, cache: Optional[LRUCache] = None):
        self.engine = engine
        self.cache = cache if cache is not None else LRUCache()

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def note_write(self) -> None:
        """Forwarded by the ingest gateway after every flush batch."""
        self.cache.note_write()

    def _through(self, key: Tuple, call) -> Tuple[Any, QueryStats]:
        cached = self.cache.get(key)
        if cached is not None:
            return cached, _cached_stats()
        answer, stats = call()
        self.cache.put(key, answer)
        return answer, stats

    def q1_all_provenance(self, parallel: bool = False):
        return self._through(
            ("q1", parallel), lambda: self.engine.q1_all_provenance(parallel)
        )

    def q2_object_provenance(self, path: str) -> Tuple[Dict[str, List[str]], QueryStats]:
        return self._through(
            ("q2", path), lambda: self.engine.q2_object_provenance(path)
        )

    def q3_direct_outputs(self, program: str, parallel: bool = False):
        return self._through(
            ("q3", program, parallel),
            lambda: self.engine.q3_direct_outputs(program, parallel),
        )

    def q4_all_descendants(self, program: str, parallel: bool = False):
        return self._through(
            ("q4", program, parallel),
            lambda: self.engine.q4_all_descendants(program, parallel),
        )
