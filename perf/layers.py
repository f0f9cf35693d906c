"""The per-layer metrics of the traced run: names, units, formulas.

A layer is a module of ``src/repro``; a metric is named
``<module>.<what>``.  Every workload reports every metric, with 0 where
the layer does nothing on that workload — which is itself the prediction
to check (``backends.local.*`` is 0 on every ``-sim`` workload, the
select spans are absent from both gateway workloads, ...).  ``README.md``
says which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from common import percentile

#: ``(name, unit, better)`` in the order they are printed.
PER_LAYER: List[Tuple[str, str, str]] = [
    # Select path.
    ("cloud.simpledb.parse_ms", "ms", "lower"),
    ("cloud.simpledb.plan_ms", "ms", "lower"),
    ("cloud.simpledb.first_page_ms", "ms", "lower"),
    ("cloud.simpledb.next_page_ms", "ms", "lower"),
    ("cloud.simpledb.pages_per_select", "count", "lower"),
    ("cloud.simpledb.rows_per_select", "count", "lower"),
    ("cloud.simpledb.est_candidates_per_row", "count", "lower"),
    ("cloud.simpledb.indexed_share", "share", "higher"),
    ("cloud.simpledb.cost_bailouts", "count", "lower"),
    ("cloud.simpledb.and_sides_skipped", "count", "lower"),
    ("cloud.simpledb.select_share", "share", "lower"),
    # Ingest path.
    ("core.sdb_items.build_requests_ms", "ms", "lower"),
    ("core.sdb_items.items_per_window", "count", "lower"),
    ("core.sdb_items.pairs_per_item", "count", "lower"),
    ("service.gateway.submit_us", "us", "lower"),
    ("service.gateway.coalesce_ms", "ms", "lower"),
    ("service.gateway.batches_saved_share", "share", "higher"),
    ("service.sharding.bloom_note_ms", "ms", "lower"),
    ("service.sharding.shard_imbalance", "ratio", "lower"),
    ("cloud.network.schedule_ms", "ms", "lower"),
    ("cloud.simpledb.put_apply_ms", "ms", "lower"),
    ("cloud.simpledb.put_apply_us_per_pair", "us", "lower"),
    ("cloud.s3.put_apply_ms", "ms", "lower"),
    # Real storage.
    ("backends.local.storage_share", "share", "lower"),
    ("backends.local.sqlite_file_bytes", "bytes", "lower"),
    ("backends.local.fs_file_bytes", "bytes", "lower"),
    ("backends.local.fs_files", "count", "lower"),
    ("backends.local.close_s", "s", "lower"),
    ("backends.local.reopen_s", "s", "lower"),
    # The paper's protocol under the kernel.
    ("cloud.sqs.send_apply_ms", "ms", "lower"),
    ("cloud.sqs.receive_apply_ms", "ms", "lower"),
    ("cloud.sqs.empty_receive_share", "share", "lower"),
    ("core.commit_daemon.commits", "count", "higher"),
    ("core.commit_daemon.messages_per_commit", "count", "lower"),
    ("core.commit_daemon.commit_lag_p50_vs", "vs", "lower"),
    ("core.commit_daemon.commit_lag_p99_vs", "vs", "lower"),
    ("sim.kernel.run_s", "s", "lower"),
    ("sim.kernel.virtual_s_per_wall_s", "ratio", "higher"),
    ("sim.kernel.self_share", "share", "lower"),
    ("query.engine.reader_ms", "ms", "lower"),
    # The HTTP front end.
    ("query.engine.q2_ms", "ms", "lower"),
    ("query.engine.q3_ms", "ms", "lower"),
    ("query.engine.q4_ms", "ms", "lower"),
    ("service.cache.hit_share", "share", "higher"),
    ("service.cache.invalidations", "count", "lower"),
    ("service.http_frontend.healthz_rtt_ms", "ms", "lower"),
    ("service.http_frontend.ingest_rtt_p50_ms", "ms", "lower"),
    ("service.http_frontend.flush_rtt_p50_ms", "ms", "lower"),
    ("service.http_frontend.read_rtt_p50_ms", "ms", "lower"),
    ("service.http_frontend.read_rtt_p90_ms", "ms", "lower"),
    ("service.http_frontend.bytes_out_per_read", "bytes", "lower"),
    # What the one client sees on the wall clock, from the untraced half
    # of the run.  Not bounded: on a shared box they do not repeat within
    # a tenth (README.md records the spreads measured).
    ("client.ops_per_s", "1/s", "higher"),
    ("client.op_p50_ms", "ms", "lower"),
    ("client.op_tail_ms", "ms", "lower"),
    # Observability and the tracing itself.
    ("obs.snapshot_ms", "ms", "lower"),
    ("obs.series", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

#: Root spans: one per client-visible operation.  ``plan-probe`` and
#: ``healthz`` are traced-run extras and not operations of the workload.
_PROBES = ("plan-probe", "healthz")
#: Spans that run inside a service's ``Request.apply`` — service state
#: change plus, on the local backend, sqlite and filesystem work.
APPLY_SPANS = (
    "cloud.simpledb.put_apply", "cloud.s3.put_apply",
    "cloud.simpledb.first_page", "cloud.simpledb.next_page",
    "cloud.sqs.send_apply", "cloud.sqs.receive_apply",
)
_SELECT = (
    "cloud.simpledb.parse", "cloud.simpledb.first_page", "cloud.simpledb.next_page",
)


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: Dict[str, Tuple[int, float, float]],
    op_names: List[str],
    traced: Dict[str, float],
    counts: Dict[str, float],
    samples: Dict[str, List[float]],
    reps: int,
    overhead_share: float,
    twin_apply_s: Optional[float],
    client: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    ``totals`` is ``Tracer.totals()``, ``traced`` the tracer's own
    counts, ``counts``/``samples`` what the repetitions reported (summed
    and pooled over ``reps`` traced repetitions), ``twin_apply_s`` the
    apply time of the same input on the sim backend (local workloads),
    ``client`` the wall-clock ``client.*`` metrics of the untraced
    repetitions.
    """

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def mean_ms(name: str) -> float:
        return _div(total_s(name) * 1e3, calls(name))

    def pct(name: str, fraction: float) -> float:
        return percentile(samples[name], fraction) if samples.get(name) else 0.0

    ops = [name for name in op_names if name not in _PROBES]
    op_s = total_s(*ops)
    chains = calls("cloud.simpledb.first_page")
    windows = calls("service.gateway.flush")
    shard_items = [v for k, v in traced.items() if k.startswith("ingest.items.")]
    local = counts.get("local.reopens", 0)
    apply_s = total_s(*APPLY_SPANS)

    values = {
        "cloud.simpledb.parse_ms": mean_ms("cloud.simpledb.parse"),
        "cloud.simpledb.plan_ms": mean_ms("cloud.simpledb.plan"),
        "cloud.simpledb.first_page_ms": mean_ms("cloud.simpledb.first_page"),
        "cloud.simpledb.next_page_ms": mean_ms("cloud.simpledb.next_page"),
        "cloud.simpledb.pages_per_select": _div(
            chains + calls("cloud.simpledb.next_page"), chains
        ),
        "cloud.simpledb.rows_per_select": _div(traced.get("select.rows", 0), chains),
        "cloud.simpledb.est_candidates_per_row": _div(
            traced.get("select.est_candidates", 0), traced.get("select.rows", 0)
        ),
        "cloud.simpledb.indexed_share": _div(
            counts.get("select.indexed", 0), counts.get("select.chains", 0)
        ),
        "cloud.simpledb.cost_bailouts": counts.get("select.cost_bailouts", 0),
        "cloud.simpledb.and_sides_skipped": counts.get("select.and_sides_skipped", 0),
        "cloud.simpledb.select_share": _div(total_s(*_SELECT), op_s),
        "core.sdb_items.build_requests_ms": mean_ms("core.sdb_items.build_requests"),
        "core.sdb_items.items_per_window": _div(
            traced.get("ingest.items", 0), windows
        ),
        "core.sdb_items.pairs_per_item": _div(
            traced.get("ingest.pairs", 0), traced.get("ingest.items", 0)
        ),
        "service.gateway.submit_us": mean_ms("service.gateway.submit") * 1e3,
        "service.gateway.coalesce_ms": _div(
            self_s("service.gateway.flush") * 1e3, windows
        ),
        "service.gateway.batches_saved_share": _div(
            counts.get("gateway.batches_saved", 0),
            counts.get("gateway.batches_unbatched", 0),
        ),
        "service.sharding.bloom_note_ms": mean_ms("service.sharding.bloom_note"),
        "service.sharding.shard_imbalance": _div(
            max(shard_items, default=0) * len(shard_items), sum(shard_items)
        ),
        "cloud.network.schedule_ms": _div(
            self_s("cloud.network.schedule") * 1e3, calls("cloud.network.schedule")
        ),
        "cloud.simpledb.put_apply_ms": mean_ms("cloud.simpledb.put_apply"),
        "cloud.simpledb.put_apply_us_per_pair": _div(
            total_s("cloud.simpledb.put_apply") * 1e6, traced.get("ingest.pairs", 0)
        ),
        "cloud.s3.put_apply_ms": mean_ms("cloud.s3.put_apply"),
        "backends.local.storage_share": (
            max(0.0, _div(apply_s - twin_apply_s, op_s))
            if twin_apply_s is not None else 0.0
        ),
        "backends.local.sqlite_file_bytes": _div(
            counts.get("local.sqlite_file_bytes", 0), local
        ),
        "backends.local.fs_file_bytes": _div(
            counts.get("local.fs_file_bytes", 0), local
        ),
        "backends.local.fs_files": _div(counts.get("local.fs_files", 0), local),
        "backends.local.close_s": _div(counts.get("local.close_s", 0), local),
        "backends.local.reopen_s": _div(counts.get("local.reopen_s", 0), local),
        "cloud.sqs.send_apply_ms": mean_ms("cloud.sqs.send_apply"),
        "cloud.sqs.receive_apply_ms": mean_ms("cloud.sqs.receive_apply"),
        "cloud.sqs.empty_receive_share": _div(
            traced.get("sqs.empty_receives", 0), traced.get("sqs.receives", 0)
        ),
        "core.commit_daemon.commits": _div(counts.get("p3.commits", 0), reps),
        "core.commit_daemon.messages_per_commit": _div(
            traced.get("sqs.messages", 0), counts.get("p3.commits", 0)
        ),
        "core.commit_daemon.commit_lag_p50_vs": pct("p3.commit_lag_vs", 0.50),
        "core.commit_daemon.commit_lag_p99_vs": pct("p3.commit_lag_vs", 0.99),
        "sim.kernel.run_s": _div(total_s("sim.kernel.run"), reps),
        "sim.kernel.virtual_s_per_wall_s": _div(
            counts.get("p3.virtual_s", 0), total_s("sim.kernel.run")
        ),
        "sim.kernel.self_share": _div(
            self_s("sim.kernel.run"), total_s("sim.kernel.run")
        ),
        "query.engine.reader_ms": (
            _div(total_s(*_SELECT) * 1e3, counts.get("p3.reader_queries", 0))
        ),
        "query.engine.q2_ms": mean_ms("query.engine.q2"),
        "query.engine.q3_ms": mean_ms("query.engine.q3"),
        "query.engine.q4_ms": mean_ms("query.engine.q4"),
        "service.cache.hit_share": _div(
            counts.get("cache.hits", 0), counts.get("cache.lookups", 0)
        ),
        "service.cache.invalidations": _div(
            counts.get("cache.invalidations", 0), reps
        ),
        "service.http_frontend.healthz_rtt_ms": pct("http.healthz_ms", 0.50),
        "service.http_frontend.ingest_rtt_p50_ms": pct("http.ingest_ms", 0.50),
        "service.http_frontend.flush_rtt_p50_ms": pct("http.flush_ms", 0.50),
        "service.http_frontend.read_rtt_p50_ms": pct("http.read_ms", 0.50),
        "service.http_frontend.read_rtt_p90_ms": pct("http.read_ms", 0.90),
        "service.http_frontend.bytes_out_per_read": _div(
            counts.get("http.bytes_out", 0), counts.get("http.reads", 0)
        ),
        **client,
        "obs.snapshot_ms": _div(
            counts.get("obs.snapshot_s", 0) * 1e3, counts.get("obs.snapshots", 0)
        ),
        "obs.series": _div(counts.get("obs.series", 0), counts.get("obs.snapshots", 0)),
        "trace.overhead_share": overhead_share,
    }
    if set(values) != {name for name, _unit, _better in PER_LAYER}:
        raise RuntimeError("layer_metrics and PER_LAYER name different metrics")
    return values


def share_table(totals, op_names) -> List[str]:
    """Where the traced operations' time went: one line per span name
    with its count, total, self time and share of all operation time."""
    ops = [name for name in op_names if name not in _PROBES]
    op_s = sum(totals[name][1] for name in ops if name in totals)
    lines = [f"  {'span':34s} {'count':>8s} {'total_ms':>10s} {'self_ms':>10s} {'of_ops':>7s}"]
    for name, (count, total, self_time) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"  {name:34s} {count:8d} {total * 1e3:10.1f} {self_time * 1e3:10.1f} "
            f"{_div(total, op_s):7.3f}"
        )
    return lines
