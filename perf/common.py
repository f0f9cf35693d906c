"""What the five workloads share: the repetition record, percentiles,
byte accounting, and the per-account counters the layer metrics read."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.cloud import CloudAccount  # first: repro.backends imports it back
from repro.backends.parity import store_fingerprint

#: The seed of every ``CloudAccount``.  It drives the simulator's own
#: propagation-delay draws and is part of the program's configuration;
#: ``--seed`` feeds only the input generators in this directory.
ACCOUNT_SEED = 0


@dataclass
class Rep:
    """One timed repetition: a fixed amount of work on generated inputs."""

    #: Operations completed (selects, flushes, HTTP requests).
    ops: int
    #: Wall seconds of the timed region only.
    wall_s: float
    #: Wall latency of each client-visible operation, milliseconds.
    latencies_ms: List[float]
    #: What the work cost on the simulated cloud — ``metered(after)``
    #: minus ``metered(before)``: virtual seconds, dollars, billed
    #: operations, bytes moved either way.
    cloud: Tuple[float, float, int, int]
    #: Bytes the client submitted, and bytes the store holds for them.
    user_bytes: int
    store_bytes: int
    #: Operations that failed, were refused, or answered wrongly.
    failed: int = 0
    #: Raw counts for the per-layer metrics (see ``layers.py``); summed
    #: over repetitions.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Named samples for the per-layer metrics; pooled over repetitions.
    samples: Dict[str, List[float]] = field(default_factory=dict)


def metered(account) -> Tuple[float, float, int, int]:
    """The account's virtual clock and billing meter, for differences."""
    billing = account.billing
    return (
        account.now,
        billing.cost(),
        billing.operation_count(),
        billing.bytes_transmitted() + billing.bytes_received(),
    )


def cloud_cost(account, before) -> Tuple[float, float, int, int]:
    return tuple(now - then for now, then in zip(metered(account), before))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def pair_bytes(items: Iterable[Tuple[str, Sequence[Tuple[str, str]]]]) -> int:
    """Item-name plus attribute-pair bytes of SimpleDB items."""
    return sum(
        len(name) + sum(len(a) + len(v) for a, v in pairs)
        for name, pairs in items
    )


def work_bytes(works) -> int:
    """Blob plus provenance-record bytes of ``FlushWork`` units."""
    total = 0
    for work in works:
        total += work.primary.blob.size
        for bundle in work.bundles:
            for record in bundle.records:
                total += len(record.attribute) + len(record.value_text())
    return total


def tree_bytes(root: str) -> Dict[str, int]:
    """Bytes and file counts under a local backend root, after close."""
    out = {"sqlite_file_bytes": 0, "fs_file_bytes": 0, "fs_files": 0}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            size = os.path.getsize(os.path.join(directory, name))
            if ".sqlite" in name:
                out["sqlite_file_bytes"] += size
            else:
                out["fs_file_bytes"] += size
                out["fs_files"] += 1
    return out


def close_and_reopen(account, root: str, counts: Dict[str, float]) -> Tuple[int, bool]:
    """Close a settled local account, measure what it left under
    ``root``, reopen it from there and compare fingerprints: acknowledged
    writes must survive.  Returns the bytes on disk and whether they did."""
    fingerprint = store_fingerprint(account)
    started = time.perf_counter()
    account.close()
    counts["local.close_s"] = time.perf_counter() - started
    on_disk = tree_bytes(root)
    counts.update({f"local.{key}": value for key, value in on_disk.items()})
    started = time.perf_counter()
    reopened = CloudAccount(seed=ACCOUNT_SEED, backend="local", backend_root=root)
    counts["local.reopen_s"] = time.perf_counter() - started
    counts["local.reopens"] = 1
    try:
        survived = store_fingerprint(reopened) == fingerprint
    finally:
        reopened.close()
    return on_disk["sqlite_file_bytes"] + on_disk["fs_file_bytes"], survived


def account_counts(account, gateway=None) -> Dict[str, float]:
    """Counters the program already keeps, read once a repetition ends."""
    stats = account.simpledb.select_stats
    counts = {
        "select.indexed": stats.indexed,
        "select.chains": stats.indexed + stats.scanned + stats.unconditional,
        "select.cost_bailouts": stats.cost_bailouts,
        "select.and_sides_skipped": stats.and_sides_skipped,
    }
    if gateway is not None:
        counts.update({
            "gateway.windows": gateway.stats.windows,
            "gateway.batches_saved": gateway.stats.sdb_batches_saved,
            "gateway.batches_unbatched": gateway.stats.sdb_batches_unbatched,
            "cache.hits": gateway.cache.stats.hits,
            "cache.lookups": gateway.cache.stats.hits + gateway.cache.stats.misses,
            "cache.invalidations": gateway.cache.stats.invalidations,
        })
    return counts


def snapshot_counts(account) -> Dict[str, float]:
    """Cost and size of one ``telemetry.metrics.snapshot()`` (traced runs)."""
    started = time.perf_counter()
    snapshot = account.telemetry.metrics.snapshot()
    return {
        "obs.snapshot_s": time.perf_counter() - started,
        "obs.snapshots": 1,
        "obs.series": len(snapshot),
    }
