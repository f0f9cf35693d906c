"""One function per paper table/figure (§5).

Each function runs the experiment against the simulated cloud and returns
structured results; ``render()`` helpers produce the paper-shaped text.
The ``benchmarks/`` pytest files call these and print the renderings, so
``pytest benchmarks/ --benchmark-only`` regenerates every number.

Every number here is a function of the seed alone: times are virtual
seconds, and the select sweeps count the items each planner mode walks
instead of timing it.  Each measurement is made once.  Table 3 has no
function of its own: it is Figure 3's EC2 runs (:class:`Table3Result`
over ``fig3_microbenchmark(...).results["ec2"]``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.profiles import (
    DEC09,
    EC2_ENV,
    LOCAL_ENV,
    SEP09,
    UML_ENV,
    SimulationProfile,
)
from repro.core import PROTOCOLS, PAS3fs, PlainS3fs, UploadMode
from repro.core.detection import S3ProvenanceReader, SimpleDBProvenanceReader
from repro.core.pas3fs import RunResult, stage_inputs
from repro.core.properties import (
    PropertyMatrix,
    check_causal_ordering,
    check_data_coupling,
    check_efficient_query,
)
from repro.errors import ClientCrashError
from repro.provenance.serialization import chunk_encoded, encode_records
from repro.provenance.syscalls import TraceBuilder
from repro.query.engine import (
    QueryStats,
    S3QueryEngine,
    SimpleDBQueryEngine,
)
from repro.service.sharding import ShardRouter
from repro.workloads import (
    make_blast_workload,
    make_challenge_workload,
    make_fleet,
    make_linux_compile_records,
    make_nightly_workload,
    run_fleet,
    run_microbenchmark,
)
from repro.workloads.base import MOUNT, Workload
from repro.workloads.fleet import FLEET_PROGRAM, FleetOutcome, P3FleetRun
from repro.workloads.microbench import CONFIGURATIONS

from repro.bench.reporting import render_series, render_table


def _workload_by_name(name: str, scale: float = 1.0) -> Workload:
    """Build a named workload; ``scale`` < 1 shrinks it for quick runs."""
    if name == "blast":
        return make_blast_workload(
            jobs=max(2, int(28 * scale)),
            queries_per_job=max(20, int(600 * scale)),
        )
    if name == "nightly":
        return make_nightly_workload(nights=max(2, int(30 * scale)))
    if name == "challenge":
        return make_challenge_workload(sessions=max(2, int(25 * scale)))
    raise ValueError(f"unknown workload {name!r}")


def _run_workload(
    workload: Workload,
    configuration: str,
    profile: SimulationProfile,
    seed: int = 0,
    finalize: bool = True,
) -> Tuple[RunResult, CloudAccount]:
    """Run one workload under one configuration; returns the result and
    the account (for cost/property inspection)."""
    account = CloudAccount(profile=profile, seed=seed)
    if workload.staged_inputs:
        stage_inputs(account, "pass-data", workload.staged_inputs)
    if configuration == "s3fs":
        result = PlainS3fs(account).run(workload.trace)
        return result, account
    protocol = PROTOCOLS[configuration](account)
    fs = PAS3fs(account, protocol)
    result = fs.run(workload.replay)
    if finalize:
        fs.finalize()
    return result, account


# ==========================================================================
# Table 1 — properties comparison under crash injection
# ==========================================================================

def _property_trace() -> Workload:
    """A small two-stage pipeline whose second output's flush is the
    crash target.  The transform stage reads/writes in a loop so its
    provenance exceeds one 8 KB WAL message — P3's mid-log crash point
    must land inside a multi-packet transaction to be meaningful."""
    builder = TraceBuilder()
    gen = builder.spawn("generate", argv=["generate"], exec_path="/bin/generate")
    builder.read(gen, "/local/seed.dat", 1024)
    builder.write_close(gen, f"{MOUNT}exp/stage1.out", 200 * 1024)
    builder.exit(gen)
    xform = builder.spawn(
        "transform",
        argv=["transform", "--mode", "full", "--passes", "64"],
        env=(("TRANSFORM_OPTS", "x" * 512), ("WORKDIR", "/scratch/t")),
        exec_path="/bin/transform",
    )
    for cycle in range(64):
        builder.read(xform, f"{MOUNT}exp/stage1.out", 200 * 1024)
        builder.write(xform, f"{MOUNT}exp/stage2.out", (cycle + 1) * 1024)
    builder.close(xform, f"{MOUNT}exp/stage2.out")
    builder.exit(xform)
    return Workload(name="property-pipeline", trace=builder.trace)


@dataclass
class Table1Result:
    matrix: PropertyMatrix

    def render(self) -> str:
        return self.matrix.render()


def table1_properties(seed: int = 0) -> Table1Result:
    """Reproduce Table 1: crash each protocol mid-flush (between its
    provenance write and its data write, or mid-WAL for P3), let any
    recovery mechanism run, and check which properties survive.

    Expected outcome (the paper's Table 1): data-coupling fails for P1
    and P2 (the two writes are not atomic; the crash strands new
    provenance describing data that never arrives) and holds for P3 (the
    incomplete transaction is simply never committed); causal ordering
    and efficient query follow the paper's check marks.
    """
    matrix = PropertyMatrix()
    crash_points = {
        "p1": "p1.after_prov_put",
        "p2": "p2.after_prov_put",
        "p3": "p3.mid_log",
    }
    workload = _property_trace()
    for name, protocol_cls in PROTOCOLS.items():
        account = CloudAccount(seed=seed)
        protocol = protocol_cls(account, mode=UploadMode.CAUSAL)
        fs = PAS3fs(account, protocol)
        # Crash on the *second* file's flush so the first one (and the
        # full ancestor chain) is already persistent.
        account.faults.arm_crash(crash_points[name], skip=1)
        try:
            fs.run(workload.replay)
        except ClientCrashError:
            pass
        # The client is dead; whatever recovery exists runs elsewhere:
        # P3's commit daemon can run on another machine (§4.3.3).
        protocol.finalize()
        account.settle(120.0)

        if name == "p1":
            reader = S3ProvenanceReader(account, protocol.bucket)
        else:
            reader = SimpleDBProvenanceReader(
                account, protocol.domain, protocol.bucket
            )
        paths = [f"{MOUNT}exp/stage1.out", f"{MOUNT}exp/stage2.out"]
        expected = {path: workload.replay.file_uuids[path] for path in paths}
        coupling = check_data_coupling(
            account, protocol.bucket, reader, paths, expected_uuids=expected
        )
        ordering = check_causal_ordering(reader)
        efficient = check_efficient_query(protocol)
        matrix.set(name, "provenance-data-coupling", coupling.holds)
        matrix.set(name, "multi-object-causal-ordering", ordering.holds)
        matrix.set(name, "efficient-query", efficient.holds)
    return Table1Result(matrix=matrix)


# ==========================================================================
# Table 2 — time to upload 50 MB of provenance to each service
# ==========================================================================

@dataclass
class Table2Result:
    seconds: Dict[str, float]
    operations: Dict[str, int]
    paper: Dict[str, float] = field(
        default_factory=lambda: {"s3": 324.7, "simpledb": 537.1, "sqs": 36.2}
    )

    def render(self) -> str:
        rows = [
            (
                service,
                f"{self.seconds[service]:.1f}",
                f"{self.paper[service]:.1f}",
                self.operations[service],
            )
            for service in ("s3", "simpledb", "sqs")
        ]
        return render_table(
            ("Service", "Time (s)", "Paper (s)", "Requests"),
            rows,
            title="Table 2: upload 50 MB of Linux-compile provenance",
        )


def _uploader(records, seed: int) -> Callable[[str, int], Tuple[float, int]]:
    """Table 2's upload of one provenance stream, per service: S3 one
    object per node, SimpleDB one item per node-version in 25-item
    batches, SQS 8 KB chunks.  The returned ``upload(service,
    connections)`` pushes it from a fresh account over that many
    connections and returns (virtual seconds, requests)."""
    by_uuid: Dict[str, list] = defaultdict(list)
    items: Dict[str, list] = defaultdict(list)
    for record in records:
        by_uuid[record.subject.uuid].append(record)
        items[str(record.subject)].append((record.attribute, record.value_text()))
    objects = [
        (f"prov/{uuid}", Blob.from_text(encode_records(records_)))
        for uuid, records_ in by_uuid.items()
    ]
    item_list = list(items.items())
    batches = [item_list[i : i + 25] for i in range(0, len(item_list), 25)]
    chunks = chunk_encoded(records, 8192)

    def s3_requests(account):
        account.s3.create_bucket("bench")
        return [account.s3.put_request("bench", key, blob) for key, blob in objects]

    def simpledb_requests(account):
        account.simpledb.create_domain("bench")
        return [
            account.simpledb.batch_put_request("bench", batch) for batch in batches
        ]

    def sqs_requests(account):
        url = account.sqs.create_queue("bench")
        return [account.sqs.send_request(url, chunk) for chunk in chunks]

    builders = {
        "s3": s3_requests, "simpledb": simpledb_requests, "sqs": sqs_requests,
    }

    def upload(service: str, connections: int) -> Tuple[float, int]:
        account = CloudAccount(seed=seed)
        requests = builders[service](account)
        makespan = account.scheduler.execute_batch(requests, connections).makespan
        return makespan, len(requests)

    return upload


def table2_service_throughput(
    target_bytes: int = 50 * 1024 * 1024,
    connections_s3: int = 150,
    connections_sdb: int = 40,
    connections_sqs: int = 150,
    seed: int = 42,
) -> Table2Result:
    """Reproduce Table 2: push the same provenance stream to S3,
    SimpleDB and SQS (see :func:`_uploader`), each at its best
    connection count."""
    upload = _uploader(
        make_linux_compile_records(target_bytes=target_bytes, seed=seed), seed
    )
    runs = {
        service: upload(service, connections)
        for service, connections in (
            ("s3", connections_s3),
            ("simpledb", connections_sdb),
            ("sqs", connections_sqs),
        )
    }
    return Table2Result(
        seconds={service: run[0] for service, run in runs.items()},
        operations={service: run[1] for service, run in runs.items()},
    )


# ==========================================================================
# Figure 3 + Table 3 — the microbenchmark (Table 3 reads Figure 3's EC2 runs)
# ==========================================================================

@dataclass
class Fig3Result:
    #: environment name -> configuration -> result
    results: Dict[str, Dict[str, RunResult]]
    #: environment name -> final metrics snapshot of the P3 upload run
    #: (billing gauges and service counters for the headline protocol).
    telemetry: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def render(self) -> str:
        parts = []
        for env_name, per_config in self.results.items():
            base = per_config["s3fs"]
            rows = []
            for config in CONFIGURATIONS:
                result = per_config[config]
                overhead = (
                    f"+{100 * result.overhead_vs(base):.1f}%"
                    if config != "s3fs"
                    else "-"
                )
                rows.append(
                    (
                        config,
                        f"{result.elapsed_seconds:.1f}",
                        overhead,
                        result.operations,
                        f"{result.mb_transmitted:.2f}",
                    )
                )
            parts.append(
                render_table(
                    ("Config", "Time (s)", "Overhead", "Ops", "MB sent"),
                    rows,
                    title=f"Figure 3 ({env_name}): Blast upload microbenchmark",
                )
            )
            parts.append(
                render_series(
                    f"Figure 3 bars ({env_name})",
                    list(per_config),
                    [r.elapsed_seconds for r in per_config.values()],
                )
            )
        return "\n\n".join(parts)


def fig3_microbenchmark(
    scale: float = 1.0,
    environments: Sequence[str] = ("ec2", "uml"),
    seed: int = 0,
    backend: str = "sim",
) -> Fig3Result:
    """Reproduce Figure 3: the Blast upload-only replay on EC2 and UML.

    Paper shape: P3 has the lowest overhead (~33 %), P1 dominates P2,
    P2 is the most expensive (~79 %); UML preserves the pattern.

    ``backend`` selects the storage backend (:mod:`repro.backends`);
    the differential matrix pins ``"sim"`` and ``"local"`` identical.
    """
    workload = _workload_by_name("blast", scale)
    envs = {"ec2": EC2_ENV, "uml": UML_ENV, "local": LOCAL_ENV}
    results: Dict[str, Dict[str, RunResult]] = {}
    telemetry: Dict[str, Dict[str, object]] = {}
    for env_name in environments:
        profile = SimulationProfile().with_environment(envs[env_name])
        per_config: Dict[str, RunResult] = {}
        for config in CONFIGURATIONS:
            account = CloudAccount(profile=profile, seed=seed, backend=backend)
            per_config[config] = run_microbenchmark(
                workload, config, profile=profile, seed=seed, account=account
            )
            if config == "p3":
                telemetry[env_name] = account.telemetry.metrics.snapshot()
            account.close()
        results[env_name] = per_config
    return Fig3Result(results=results, telemetry=telemetry)


@dataclass
class Table3Result:
    """Table 3: bytes and operations per protocol for the microbenchmark
    (commit daemon excluded, as in the paper), read off Figure 3's EC2
    results."""

    results: Dict[str, RunResult]
    paper_mb: Dict[str, float] = field(
        default_factory=lambda: {
            "s3fs": 713.09, "p1": 715.31, "p2": 716.11, "p3": 716.32,
        }
    )
    paper_ops: Dict[str, int] = field(
        default_factory=lambda: {"s3fs": 617, "p1": 2287, "p2": 1235, "p3": 1337}
    )

    def render(self) -> str:
        base = self.results["s3fs"]
        rows = []
        for config in CONFIGURATIONS:
            result = self.results[config]
            mb_overhead = (
                f"{100 * (result.bytes_transmitted / base.bytes_transmitted - 1):.2f}%"
                if config != "s3fs"
                else "-"
            )
            ops_overhead = (
                f"{100 * (result.operations / base.operations - 1):.1f}%"
                if config != "s3fs"
                else "-"
            )
            rows.append(
                (
                    config,
                    f"{result.mb_transmitted:.2f}",
                    mb_overhead,
                    result.operations,
                    ops_overhead,
                    f"{self.paper_mb[config]:.2f}",
                    self.paper_ops[config],
                )
            )
        return render_table(
            (
                "Config", "MB sent", "MB ovh", "Ops", "Ops ovh",
                "Paper MB", "Paper ops",
            ),
            rows,
            title="Table 3: data-transfer and operation overheads (microbenchmark)",
        )


# ==========================================================================
# Figure 4 — full workload elapsed times
# ==========================================================================

@dataclass
class Fig4Cell:
    result: RunResult
    overhead: float


@dataclass
class Fig4Result:
    #: (period, environment, workload) -> configuration -> cell
    cells: Dict[Tuple[str, str, str], Dict[str, Fig4Cell]]

    def render(self) -> str:
        rows = []
        for (period, env_name, workload), per_config in sorted(self.cells.items()):
            row = [period, env_name, workload]
            for config in CONFIGURATIONS:
                cell = per_config[config]
                if config == "s3fs":
                    row.append(f"{cell.result.elapsed_seconds:.0f}s")
                else:
                    row.append(
                        f"{cell.result.elapsed_seconds:.0f}s (+{100 * cell.overhead:.1f}%)"
                    )
            rows.append(row)
        return render_table(
            ("Period", "Env", "Workload", "s3fs", "p1", "p2", "p3"),
            rows,
            title="Figure 4: workload elapsed times",
        )

    def overhead_summary(self) -> Tuple[int, int]:
        """(cells with overhead < 10 %, total protocol cells) — the
        paper's headline is 29 of 36."""
        below = 0
        total = 0
        for per_config in self.cells.values():
            for config, cell in per_config.items():
                if config == "s3fs":
                    continue
                total += 1
                if cell.overhead < 0.10:
                    below += 1
        return below, total


def fig4_workloads(
    scale: float = 1.0,
    workloads: Sequence[str] = ("blast", "nightly", "challenge"),
    environments: Sequence[str] = ("uml", "local"),
    periods: Sequence[str] = ("sep09", "dec09"),
    seed: int = 0,
) -> Fig4Result:
    """Reproduce Figure 4: {period} x {EC2(UML), local} x {workloads} x
    {s3fs, P1, P2, P3} elapsed times.

    Paper shape: overheads mostly under 10 %; nightly and challenge run
    slower from the local machine while Blast runs *faster* locally (UML's
    512 MB guest thrashes); Dec 09 is 4-44.5 % faster than Sep 09.
    """
    env_map = {"ec2": EC2_ENV, "uml": UML_ENV, "local": LOCAL_ENV}
    period_map = {"sep09": SEP09, "dec09": DEC09}
    built = {name: _workload_by_name(name, scale) for name in workloads}
    cells: Dict[Tuple[str, str, str], Dict[str, Fig4Cell]] = {}
    for period_name in periods:
        for workload_name, workload in built.items():
            for env_name in environments:
                profile = SimulationProfile(
                    environment=env_map[env_name], period=period_map[period_name]
                )
                per_config: Dict[str, Fig4Cell] = {}
                for config in CONFIGURATIONS:
                    result, _account = _run_workload(
                        workload, config, profile, seed=seed
                    )
                    base = per_config["s3fs"].result if per_config else result
                    per_config[config] = Fig4Cell(result, result.overhead_vs(base))
                cells[(period_name, env_name, workload_name)] = per_config
    return Fig4Result(cells=cells)


# ==========================================================================
# Table 4 — cost per benchmark
# ==========================================================================

@dataclass
class Table4Result:
    #: workload -> configuration -> USD
    costs: Dict[str, Dict[str, float]]
    paper: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: {
            "nightly": {"s3fs": 1.05, "p1": 1.05, "p2": 1.05, "p3": 1.06},
            "blast": {"s3fs": 0.37, "p1": 0.39, "p2": 0.38, "p3": 0.40},
            "challenge": {"s3fs": 0.27, "p1": 0.29, "p2": 0.29, "p3": 0.30},
        }
    )

    def render(self) -> str:
        rows = []
        for config in CONFIGURATIONS:
            row = [config]
            for workload in ("nightly", "blast", "challenge"):
                row.append(f"${self.costs[workload][config]:.2f}")
                row.append(f"(${self.paper[workload][config]:.2f})")
            rows.append(row)
        return render_table(
            (
                "Config", "Nightly", "paper", "Blast", "paper",
                "Challenge", "paper",
            ),
            rows,
            title="Table 4: cost per benchmark, USD (commit daemon included)",
        )


def table4_cost(scale: float = 1.0, seed: int = 0) -> Table4Result:
    """Reproduce Table 4: the USD bill for each workload x configuration,
    including P3's commit daemon, a month of storage for the uploaded
    data, and the EC2 instance-hours of the run."""
    profile = SimulationProfile(environment=UML_ENV)
    costs: Dict[str, Dict[str, float]] = {}
    for workload_name in ("nightly", "blast", "challenge"):
        workload = _workload_by_name(workload_name, scale)
        stored_gb = workload.trace.total_bytes_written() / (1024.0 ** 3)
        per_config: Dict[str, float] = {}
        for config in CONFIGURATIONS:
            result, account = _run_workload(workload, config, profile, seed=seed)
            per_config[config] = account.billing.cost(
                stored_gb_month=stored_gb,
                instance_hours=account.instance_hours(),
            )
        costs[workload_name] = per_config
    return Table4Result(costs=costs)


# ==========================================================================
# Table 5 — query performance
# ==========================================================================

@dataclass
class Table5Row:
    query: str
    backend: str
    sequential_s: float
    parallel_s: Optional[float]
    mb: float
    operations: int


@dataclass
class Table5Result:
    rows: List[Table5Row]
    #: backend -> query -> answer, kept out of ``rows`` (the table):
    #: "Q1" is its entry count, "Q3 parallel" the parallel run's refs.
    answers: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append(
                (
                    row.query,
                    row.backend,
                    f"{row.sequential_s:.2f}",
                    f"{row.parallel_s:.2f}" if row.parallel_s is not None else "-",
                    f"{row.mb:.2f}",
                    row.operations,
                )
            )
        return render_table(
            ("Query", "Backend", "Seq (s)", "Par (s)", "MB", "Ops"),
            table_rows,
            title="Table 5: query performance on the Blast provenance",
        )


def table5_queries(scale: float = 1.0, seed: int = 0) -> Table5Result:
    """Reproduce Table 5: Q1-Q4 over the Blast provenance, on the S3
    backend (P1) and the SimpleDB backend (P2/P3), sequentially and in
    parallel.

    Paper shape: Q1/Q3/Q4 require a full scan on S3 but selective
    retrieval on SimpleDB (an order of magnitude faster); Q2 is
    comparable on both (a HEAD dominates); parallelism helps S3 scans
    but cannot help SimpleDB's next-token chain.
    """
    workload = _workload_by_name("blast", scale)
    target = f"{MOUNT}blast/job-000/raw.hits"
    rows: List[Table5Row] = []
    answers: Dict[str, Dict[str, object]] = {}

    for backend_name, config in (("s3", "p1"), ("simpledb", "p2")):
        account = CloudAccount(seed=seed)
        run_microbenchmark(workload, config, account=account)
        account.settle(120.0)
        if backend_name == "s3":
            engine = S3QueryEngine(account)
        else:
            engine = SimpleDBQueryEngine(account)

        q1, q1_seq = engine.q1_all_provenance(parallel=False)
        q1_par: Optional[QueryStats] = None
        if backend_name == "s3":
            _, q1_par = engine.q1_all_provenance(parallel=True)
        q2_answer, q2 = engine.q2_object_provenance(target)
        q3, q3_seq = engine.q3_direct_outputs("blastall", parallel=False)
        q3_parallel, q3_par = engine.q3_direct_outputs("blastall", parallel=True)
        q4, q4_seq = engine.q4_all_descendants("blastall", parallel=False)
        q4_parallel, q4_par = engine.q4_all_descendants("blastall", parallel=True)
        answers[backend_name] = {
            "Q1": len(q1.refs()), "Q2": q2_answer, "Q3": q3, "Q4": q4,
            "Q3 parallel": q3_parallel, "Q4 parallel": q4_parallel,
        }

        rows.extend(
            [
                Table5Row(
                    "Q1", backend_name, q1_seq.elapsed_seconds,
                    q1_par.elapsed_seconds if q1_par else None,
                    q1_seq.mb_transferred, q1_seq.operations,
                ),
                Table5Row(
                    "Q2", backend_name, q2.elapsed_seconds, None,
                    q2.mb_transferred, q2.operations,
                ),
                Table5Row(
                    "Q3", backend_name, q3_seq.elapsed_seconds,
                    q3_par.elapsed_seconds, q3_seq.mb_transferred,
                    q3_seq.operations,
                ),
                Table5Row(
                    "Q4", backend_name, q4_seq.elapsed_seconds,
                    q4_par.elapsed_seconds, q4_seq.mb_transferred,
                    q4_seq.operations,
                ),
            ]
        )
    return Table5Result(rows=rows, answers=answers)


# ==========================================================================
# Ablations beyond the paper
# ==========================================================================

@dataclass
class ConnectionSweepResult:
    #: service -> [(connections, seconds)]
    series: Dict[str, List[Tuple[int, float]]]

    def render(self) -> str:
        parts = []
        for service, points in self.series.items():
            parts.append(
                render_table(
                    ("Connections", "Time (s)"),
                    [(c, f"{s:.1f}") for c, s in points],
                    title=f"Connection sweep: {service}",
                )
            )
        return "\n\n".join(parts)


def ablation_connection_sweep(
    target_bytes: int = 8 * 1024 * 1024,
    connection_counts: Sequence[int] = (1, 5, 10, 20, 40, 80, 150),
    seed: int = 7,
) -> ConnectionSweepResult:
    """§5.1's prose finding as an experiment: S3 and SQS keep scaling to
    150 connections; SimpleDB stops improving around 40."""
    upload = _uploader(
        make_linux_compile_records(target_bytes=target_bytes, seed=seed), seed
    )
    series: Dict[str, List[Tuple[int, float]]] = {"s3": [], "simpledb": [], "sqs": []}
    for connections in connection_counts:
        for service, points in series.items():
            points.append((connections, upload(service, connections)[0]))
    return ConnectionSweepResult(series=series)


# ==========================================================================
# Multi-tenant service tier — shard scaling and the query cache
# ==========================================================================

@dataclass
class MultiTenantPoint:
    """One shard count's measurements with the fleet held fixed."""

    shards: int
    elapsed_seconds: float
    throughput: float
    operations: int
    bytes_transmitted: int
    cost_usd: float
    sdb_batches: int
    sdb_batches_saved: int


@dataclass
class MultiTenantResult:
    points: List[MultiTenantPoint]
    #: Q2/Q3/Q4 answers identical across every shard count.
    queries_match: bool
    #: Cache behaviour on a repeated-Q2 workload at the highest shard
    #: count: (cold ops, warm ops, hits, misses).
    cache_cold_ops: int = 0
    cache_warm_ops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Final metrics snapshot of the last swept shard count's run
    #: (gateway, cache, and billing gauges after the cache exercise).
    telemetry: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        table = render_table(
            (
                "Shards", "Time (s)", "Flushes/s", "Ops", "MB sent",
                "BatchPuts", "saved",
            ),
            [
                (
                    p.shards,
                    f"{p.elapsed_seconds:.1f}",
                    f"{p.throughput:.2f}",
                    p.operations,
                    f"{p.bytes_transmitted / (1024.0 * 1024.0):.2f}",
                    p.sdb_batches,
                    p.sdb_batches_saved,
                )
                for p in self.points
            ],
            title="Multi-tenant scaling: fixed fleet, growing shard count",
        )
        cache_line = (
            f"query cache: cold Q2 = {self.cache_cold_ops} ops, warm Q2 = "
            f"{self.cache_warm_ops} ops ({self.cache_hits} hits / "
            f"{self.cache_misses} misses); shard-aware answers match: "
            f"{self.queries_match}"
        )
        return table + "\n" + cache_line

    def as_json(self) -> Dict[str, object]:
        """Machine-readable form for ``write_bench_json``."""
        return {
            "points": [
                {
                    "shards": p.shards,
                    "elapsed_seconds": p.elapsed_seconds,
                    "throughput_flushes_per_s": p.throughput,
                    "operations": p.operations,
                    "bytes_transmitted": p.bytes_transmitted,
                    "cost_usd": p.cost_usd,
                    "sdb_batches": p.sdb_batches,
                    "sdb_batches_saved": p.sdb_batches_saved,
                }
                for p in self.points
            ],
            "queries_match": self.queries_match,
            "cache": {
                "cold_ops": self.cache_cold_ops,
                "warm_ops": self.cache_warm_ops,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
        }


def multitenant_scaling(
    shard_counts: Sequence[int] = (1, 2, 4),
    clients: int = 24,
    files_per_client: int = 4,
    extra_attributes: int = 48,
    seed: int = 0,
) -> MultiTenantResult:
    """The service tier's scaling experiment: one fixed client fleet
    driven through the ingest gateway at growing shard counts.

    Expected shape: total commit throughput improves monotonically from
    1 to 4 shards — SimpleDB's indexing pipeline is per-domain, so
    spreading items over domains multiplies sustained ingest (the §5
    domain-limit observation, turned into a design) — while Q2–Q4
    answers through the shard-aware query path stay byte-identical to
    the single-domain path, and a repeated Q2 hits the service cache
    with zero cloud operations.
    """
    from repro.service import IngestGateway, ShardRouter

    target_path = f"{MOUNT}fleet/c0000/f000.dat"
    points: List[MultiTenantPoint] = []
    answers: List[Tuple] = []
    cache_numbers = (0, 0, 0, 0)

    for shards in shard_counts:
        account = CloudAccount(seed=seed)
        router = ShardRouter(shards=shards)
        gateway = IngestGateway(account, router)
        fleet = make_fleet(
            clients=clients,
            files_per_client=files_per_client,
            extra_attributes=extra_attributes,
            seed=seed,
        )
        run = run_fleet(account, gateway, fleet, seed=seed)
        account.settle(120.0)
        points.append(
            MultiTenantPoint(
                shards=shards,
                elapsed_seconds=run.elapsed_seconds,
                throughput=run.flushes_per_second,
                operations=run.operations,
                bytes_transmitted=run.bytes_transmitted,
                cost_usd=run.cost_usd,
                sdb_batches=gateway.stats.sdb_batches,
                sdb_batches_saved=gateway.stats.sdb_batches_saved,
            )
        )

        engine = SimpleDBQueryEngine(account, router=router)
        q2, _ = engine.q2_object_provenance(target_path)
        q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
        q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
        answers.append((q2, q3, q4))

        if shards == max(shard_counts):
            cached = gateway.query_engine()
            ops_before = account.billing.operation_count()
            cached.q2_object_provenance(target_path)
            cold_ops = account.billing.operation_count() - ops_before
            ops_before = account.billing.operation_count()
            cached.q2_object_provenance(target_path)
            warm_ops = account.billing.operation_count() - ops_before
            cache_numbers = (
                cold_ops, warm_ops, cached.stats.hits, cached.stats.misses
            )

    # repr-compare: the answers must match byte for byte, including the
    # ordering inside multi-valued attributes, not just set-wise.
    queries_match = all(repr(answer) == repr(answers[0]) for answer in answers[1:])
    return MultiTenantResult(
        points=points,
        queries_match=queries_match,
        cache_cold_ops=cache_numbers[0],
        cache_warm_ops=cache_numbers[1],
        cache_hits=cache_numbers[2],
        cache_misses=cache_numbers[3],
        telemetry=account.telemetry.metrics.snapshot(),
    )


# ==========================================================================
# Commit lag over virtual time — the kernel's scenario family
# ==========================================================================

@dataclass
class CommitLagSample:
    """One monitor tick: the WAL backlog and commit progress at time t."""

    t: float
    queue_depth: int
    committed: int


@dataclass
class CommitLagResult:
    """What the kernel observed: fleet clients logging transactions into a
    shared WAL queue while in-loop commit daemons race to drain it."""

    clients: int
    daemons: int
    flushes: int
    committed: int
    elapsed_seconds: float
    samples: List[CommitLagSample]
    #: (txn_id, logged_at, committed_at) for every committed transaction,
    #: ordered by commit completion.
    commit_timeline: List[Tuple[str, float, float]]
    crashed_processes: List[str] = field(default_factory=list)
    #: Commit groups the daemons formed (one per receive that completed
    #: at least one transaction) and the transactions in them, pooled
    #: over the daemons' ``daemon.group_size`` histograms.
    groups: int = 0
    grouped_transactions: int = 0
    max_group_size: int = 0
    #: ``ReceiveMessage`` requests the daemons issued, how many of them
    #: came back empty, and the widest round (``daemon.receive_fanout``
    #: histograms, ``daemon.empty_receives`` counters).
    receives: int = 0
    empty_receives: int = 0
    max_fanout: int = 0
    #: Final metrics snapshot (daemon counters, queue-depth gauge,
    #: billing) — the kernel-driven scraper also sampled these into the
    #: registry's time series during the run.
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def lags(self) -> List[float]:
        return [committed - logged for _, logged, committed in self.commit_timeline]

    @property
    def max_queue_depth(self) -> int:
        return max((s.queue_depth for s in self.samples), default=0)

    @property
    def mean_lag(self) -> float:
        lags = self.lags
        return sum(lags) / len(lags) if lags else 0.0

    @property
    def max_lag(self) -> float:
        return max(self.lags, default=0.0)

    @property
    def mean_group_size(self) -> float:
        return self.grouped_transactions / self.groups if self.groups else 0.0

    def render(self) -> str:
        table = render_table(
            ("t (s)", "WAL depth", "committed"),
            [(f"{s.t:.1f}", s.queue_depth, s.committed) for s in self.samples],
            title=(
                f"Commit lag: {self.clients} clients, {self.daemons} "
                f"daemon(s) interleaved on the kernel"
            ),
        )
        series = render_series(
            "WAL queue depth over virtual time",
            [f"t={s.t:.0f}" for s in self.samples],
            [float(s.queue_depth) for s in self.samples],
            unit=" msgs",
        )
        summary = (
            f"{self.committed}/{self.flushes} transactions committed in "
            f"{self.elapsed_seconds:.1f}s; lag mean {self.mean_lag:.1f}s, "
            f"max {self.max_lag:.1f}s; {self.groups} commit groups, mean "
            f"size {self.mean_group_size:.1f}, max {self.max_group_size}; "
            f"{self.receives} receives ({self.empty_receives} empty), "
            f"fan-out up to {self.max_fanout}; "
            f"peak backlog {self.max_queue_depth} messages"
        )
        if self.crashed_processes:
            summary += f"; crashed: {', '.join(self.crashed_processes)}"
        return "\n\n".join([table, series, summary])

    def as_json(self) -> Dict[str, object]:
        """Machine-readable form for ``write_bench_json`` — stable across
        runs of the same seed (the determinism contract)."""
        return {
            "clients": self.clients,
            "daemons": self.daemons,
            "flushes": self.flushes,
            "committed": self.committed,
            "elapsed_seconds": self.elapsed_seconds,
            "samples": [asdict(s) for s in self.samples],
            "commit_timeline": [
                {"txn": txn, "logged_at": logged, "committed_at": committed}
                for txn, logged, committed in self.commit_timeline
            ],
            "lag_mean_s": self.mean_lag,
            "lag_max_s": self.max_lag,
            "groups": self.groups,
            "group_size_mean": self.mean_group_size,
            "group_size_max": self.max_group_size,
            "receives": self.receives,
            "empty_receives": self.empty_receives,
            "fanout_max": self.max_fanout,
            "max_queue_depth": self.max_queue_depth,
            "crashed_processes": list(self.crashed_processes),
        }


#: Seconds between the commit-lag monitor's WAL-depth samples.
COMMIT_LAG_SAMPLE_S = 2.0


def commit_lag_experiment(
    clients: int = 4,
    files_per_client: int = 5,
    daemons: int = 1,
    seed: int = 0,
) -> CommitLagResult:
    """The kernel's headline experiment: concurrent fleet clients log P3
    transactions into one shared WAL queue while ``daemons`` commit
    daemons poll it in-loop; a monitor samples WAL queue depth and commit
    progress over virtual time.

    Under the phased driver this shape was unobservable — the daemon only
    ever ran after the clients finished, so backlog was an artifact of
    drain order.  Here the backlog curve is real: it grows while clients
    outpace the daemons and decays as the daemons catch up, and every
    committed transaction's lag (log completion to commit completion) is
    measured on the virtual clock.  Deterministic: the same arguments
    and seed replay bit for bit.
    """
    account = CloudAccount(seed=seed)
    fleet = make_fleet(clients=clients, files_per_client=files_per_client, seed=seed)
    run = P3FleetRun(account, fleet, daemons=daemons, readers=0, seed=seed)
    queue_url = run.protocol.queue_url
    samples: List[CommitLagSample] = []

    def sample(now: float) -> None:
        samples.append(
            CommitLagSample(
                t=round(now, 6),
                queue_depth=account.sqs.pending_count(queue_url),
                committed=sum(d.committed_count() for d in run.daemons),
            )
        )

    run.kernel.every(COMMIT_LAG_SAMPLE_S, sample, name="monitor")
    run.drain()

    timeline = sorted(
        (
            (record.txn_id, record.logged_at, record.committed_at)
            for record in run.commit_records
        ),
        key=lambda row: (row[2], row[0]),
    )
    metrics = account.telemetry.metrics
    group_sizes = [
        hist for hist in metrics.histograms_named("daemon.group_size") if hist.count
    ]
    fanouts = [
        hist for hist in metrics.histograms_named("daemon.receive_fanout") if hist.count
    ]
    return CommitLagResult(
        clients=clients,
        daemons=daemons,
        flushes=run.flushes,
        committed=run.committed,
        # When the work actually ended — the last commit or the last
        # client activity — not the drain loop's quantized horizon.
        elapsed_seconds=max(run.clients_done_at, run.last_commit),
        samples=samples,
        commit_timeline=timeline,
        crashed_processes=sorted(
            p.name for p in run.kernel.processes if p.state.value == "crashed"
        ),
        groups=sum(hist.count for hist in group_sizes),
        grouped_transactions=int(sum(hist.sum for hist in group_sizes)),
        max_group_size=int(
            max((hist.percentile(100) for hist in group_sizes), default=0)
        ),
        receives=int(sum(hist.sum for hist in fanouts)),
        empty_receives=sum(
            counter.value
            for counter in metrics.counters_named("daemon.empty_receives")
        ),
        max_fanout=int(max((hist.percentile(100) for hist in fanouts), default=0)),
        telemetry=metrics.snapshot(),
    )


# ==========================================================================
# Select scaling — the indexed query engine vs the scan fallback
# ==========================================================================

@dataclass
class SelectScalingCell:
    """One (domain size, query) measurement, indexed vs scan fallback."""

    query: str
    expression: str
    rows: int
    #: Items the planner walks for one select
    #: (:meth:`SimpleDBService.explain`): its index candidates, or the
    #: whole domain when it decides to scan.
    indexed_work: int
    #: Items the ``use_indexes=False`` scan walks: the whole domain.
    scan_work: int
    #: Simulated request count for one chain (identical in both modes).
    requests: int
    bytes_out: int
    #: Rows, row order, and billed request/byte counts byte-identical
    #: between the indexed path and the ``use_indexes=False`` scan.
    identical: bool
    #: True when the planner actually served this query from the indexes
    #: (false for the deliberate fallback control).
    used_index: bool

    @property
    def speedup(self) -> float:
        if self.indexed_work <= 0:
            return float("inf")
        return self.scan_work / self.indexed_work


@dataclass
class SelectScalingPoint:
    items: int
    cells: List[SelectScalingCell]
    #: ``sdb.index.memory_bytes`` of the built domain.
    index_memory_bytes: int = 0

    def cell(self, query: str) -> SelectScalingCell:
        for cell in self.cells:
            if cell.query == query:
                return cell
        raise KeyError(query)

    @property
    def memory_bytes_per_item(self) -> float:
        return self.index_memory_bytes / self.items if self.items else 0.0


@dataclass
class SelectScalingResult:
    points: List[SelectScalingPoint]
    title: str = "Select scaling: indexed engine vs full-scan fallback"
    #: Final metrics snapshot of the largest domain's account (select
    #: planner counters and billing gauges).
    telemetry: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for point in self.points:
            for cell in point.cells:
                rows.append(
                    (
                        point.items,
                        cell.query,
                        cell.rows,
                        cell.indexed_work,
                        cell.scan_work,
                        f"{cell.speedup:.1f}x",
                        cell.requests,
                        "yes" if cell.used_index else "scan",
                        "yes" if cell.identical else "NO",
                    )
                )
        table = render_table(
            (
                "Items", "Query", "Rows", "Idx work", "Scan work",
                "Speedup", "Reqs", "Indexed", "Identical",
            ),
            rows,
            title=self.title,
        )
        memory_rows = [
            (
                point.items,
                point.index_memory_bytes,
                f"{point.memory_bytes_per_item:.1f}",
            )
            for point in self.points
            if point.index_memory_bytes
        ]
        if not memory_rows:
            return table
        return table + "\n" + render_table(
            ("Items", "Index (B)", "B/item"),
            memory_rows,
            title="Index memory",
        )

    def as_json(self) -> Dict[str, object]:
        return {
            "points": [
                {
                    "items": point.items,
                    "index_memory_bytes": point.index_memory_bytes,
                    "memory_bytes_per_item": point.memory_bytes_per_item,
                    "cells": [
                        {
                            "query": cell.query,
                            "expression": cell.expression,
                            "rows": cell.rows,
                            "indexed_work": cell.indexed_work,
                            "scan_work": cell.scan_work,
                            "speedup": cell.speedup,
                            "requests": cell.requests,
                            "bytes_out": cell.bytes_out,
                            "identical": cell.identical,
                            "used_index": cell.used_index,
                        }
                        for cell in point.cells
                    ],
                }
                for point in self.points
            ],
        }


def _select_scaling_items(count: int) -> List[Tuple[str, List[Tuple[str, str]]]]:
    """A deterministic provenance-shaped domain: ``count`` node-version
    items named ``u<object>_<version>`` (4 versions per object), with
    ``name`` values bucketed so equality selects stay ~100 rows at every
    domain size — the selective lookups Q2/Q3 issue."""
    groups = max(1, count // 100)
    items: List[Tuple[str, List[Tuple[str, str]]]] = []
    for i in range(count):
        name = f"u{i // 4:07d}_{i % 4}"
        parent = f"u{max(0, i - 4) // 4:07d}_{(i % 4)}"
        pairs = [
            ("type", "proc" if i % 25 == 0 else "file"),
            ("name", f"prog-{i % groups:05d}"),
            ("input", parent),
        ]
        items.append((name, pairs))
    return items


def _select_scaling_queries(domain: str) -> List[Tuple[str, str]]:
    return [
        ("equality", f"select * from {domain} where name = 'prog-00000'"),
        ("prefix", f"select * from {domain} where itemName() like 'u0000012_%'"),
        (
            "in",
            "select * from {} where input in ({})".format(
                domain, ", ".join(f"'u{i:07d}_{i % 4}'" for i in range(8))
            ),
        ),
        (
            "conjunction",
            f"select * from {domain} "
            "where name = 'prog-00000' and type = 'proc'",
        ),
        # Deliberate planner fallback: != is unindexable, so both modes
        # scan — the control that shows parity, not speedup.
        ("negation-scan", f"select * from {domain} where type != 'file'"),
    ]


def _metered(account, run: Callable[[], object]):
    """Run one query once: its answer, and the billed ``Select``
    operations and bytes it cost."""
    billing = account.billing
    ops = billing.snapshot()["simpledb"].get("Select", 0)
    moved = billing.bytes_received() + billing.bytes_transmitted()
    answer = run()
    return (
        answer,
        billing.snapshot()["simpledb"]["Select"] - ops,
        billing.bytes_received() + billing.bytes_transmitted() - moved,
    )


def _sweep_select_modes(
    domain_sizes: Sequence[int],
    seed: int,
    item_builder: Callable[[int], List[Tuple[str, List[Tuple[str, str]]]]],
    query_builder: Callable[[str], List[Tuple[str, str]]],
    title: str = "Select scaling: indexed engine vs full-scan fallback",
) -> SelectScalingResult:
    """Shared sweep harness for the indexed-vs-scan experiments: build a
    domain of each size, run each query once in both modes, check
    byte-identity of rows and billing, and count the items each mode
    walks from the planner's own plan."""
    points: List[SelectScalingPoint] = []
    for count in domain_sizes:
        account = CloudAccount(seed=seed)
        sdb = account.simpledb
        sdb.create_domain("bench")
        items = item_builder(count)
        requests = [
            sdb.batch_put_request("bench", items[i : i + 25])
            for i in range(0, len(items), 25)
        ]
        account.scheduler.execute_batch(requests, 40)
        account.settle(120.0)

        index_memory = sdb.index_memory_bytes()

        cells: List[SelectScalingCell] = []
        for query_name, expression in query_builder("bench"):
            plan = sdb.explain(expression)
            used_index = plan["decision"] == "index"
            per_mode = {}
            for use_indexes in (True, False):
                sdb.use_indexes = use_indexes
                per_mode[use_indexes] = _metered(
                    account, lambda: sdb.select(expression)
                )
            sdb.use_indexes = True
            rows, ops, moved = per_mode[True]

            cells.append(
                SelectScalingCell(
                    query=query_name,
                    expression=expression,
                    rows=len(rows),
                    indexed_work=(
                        plan["candidates"] if used_index else plan["domain_items"]
                    ),
                    scan_work=plan["domain_items"],
                    requests=ops,
                    bytes_out=moved,
                    # Rows, row order, requests and bytes.
                    identical=repr(per_mode[True]) == repr(per_mode[False]),
                    used_index=used_index,
                )
            )
        points.append(
            SelectScalingPoint(
                items=count,
                cells=cells,
                index_memory_bytes=index_memory,
            )
        )
    return SelectScalingResult(
        points=points,
        title=title,
        telemetry=account.telemetry.metrics.snapshot(),
    )


def select_scaling(
    domain_sizes: Sequence[int] = (1_000, 10_000, 100_000),
    seed: int = 0,
) -> SelectScalingResult:
    """The indexed select engine's experiment: the same queries against
    growing domains, with the planner on (``use_indexes=True``) and off
    (scan fallback), counting the items each mode walks.

    Expected shape: equality/prefix/IN selects walk O(matches) indexed
    and O(domain) scanned, so the work ratio grows linearly with domain
    size (≥5x is the acceptance floor from 2k items); the ``!=`` control
    falls back to scan in both modes and stays at parity.  Rows, row
    order, simulated request counts, and billed bytes must be identical
    between the two modes at every size.
    """
    return _sweep_select_modes(
        domain_sizes, seed, _select_scaling_items, _select_scaling_queries
    )


def _range_query_items(count: int) -> List[Tuple[str, List[Tuple[str, str]]]]:
    """Version- and time-shaped provenance items: ``u<obj>_<ver>`` (4
    versions per object) carrying a zero-padded ``version`` attribute
    and an ``mtime`` that grows with creation order — the shapes the
    paper's queries bound by (ancestry walks bounded by version,
    nightly-backup freshness by time).  Zero-padding is load-bearing:
    range predicates compare lexicographically."""
    groups = max(1, count // 100)
    items: List[Tuple[str, List[Tuple[str, str]]]] = []
    for i in range(count):
        name = f"u{i // 4:07d}_{i % 4}"
        pairs = [
            ("type", "proc" if i % 25 == 0 else "file"),
            # Group whole objects (not raw items) so every name bucket
            # holds all four versions — the version-slice conjunction
            # must match at every domain size.
            ("name", f"prog-{(i // 4) % groups:05d}"),
            ("version", f"{i % 4:04d}"),
            ("mtime", f"{1_000_000 + i:09d}"),
        ]
        items.append((name, pairs))
    return items


def _range_query_queries(domain: str) -> List[Tuple[str, str]]:
    """Fixed-selectivity range queries (~50-100 rows at every domain
    size, so indexed cost stays O(matches) while scan cost grows with
    the domain)."""
    return [
        (
            "time-window",
            f"select * from {domain} "
            "where mtime >= '001000100' and mtime < '001000200'",
        ),
        (
            "time-between",
            f"select * from {domain} "
            "where mtime between '001000300' and '001000399'",
        ),
        (
            "version-slice",
            f"select * from {domain} "
            "where name = 'prog-00000' and version >= '0002'",
        ),
        (
            "itemname-range",
            f"select * from {domain} "
            "where itemName() between 'u0000010_' and 'u0000034_z'",
        ),
        # Deliberate planner fallback: the != side of the OR is
        # unindexable, so both modes scan — the parity control.
        (
            "range-scan-control",
            f"select * from {domain} "
            "where mtime < '001000200' or type != 'file'",
        ),
    ]


def range_query(
    domain_sizes: Sequence[int] = (1_000, 10_000, 60_000),
    seed: int = 0,
) -> SelectScalingResult:
    """Range-predicate experiment: version-range and time-window queries
    over growing stores, indexed vs the scan fallback.

    Expected shape: the windows match a fixed number of rows at every
    domain size, so the indexed work stays flat (O(matches) via the
    sorted-value ranges) while the scan grows linearly — sublinear
    growth, a ≥5x work ratio from 10k items up.  The OR-with-``!=``
    control scans in both modes and stays at parity.  Rows, row order,
    request counts, and billed bytes identical between modes at every
    size.
    """
    return _sweep_select_modes(
        domain_sizes,
        seed,
        _range_query_items,
        _range_query_queries,
        title="Range queries: sorted-value indexes vs full-scan fallback",
    )


# ==========================================================================
# Cost planner over sharded fan-out — the planner_fanout experiment
# ==========================================================================

@dataclass
class PlannerFanoutCell:
    """One query's cost through the sharded engine."""

    query: str
    rows: int
    #: Attribute-rooted chunk x domain select chains issued: every chunk
    #: visits every shard.
    selects: int
    #: Billed ``Select`` operations (all select chains incl. pages).
    ops: int
    bytes_moved: int


@dataclass
class PlannerModeCell:
    """One planner mode's cost for the same Q4 on the same store."""

    planner: str  # "cost" | "scan"
    rows: int
    ops: int
    bytes_moved: int


@dataclass
class PlannerFanoutPoint:
    shards: int
    #: Children per first-generation file — the selectivity knob: deeper
    #: fan-in means wider IN chunks and a larger final (empty) frontier.
    children: int
    items: int
    cells: List[PlannerFanoutCell]
    planner_modes: List[PlannerModeCell]
    #: Rows, Select ops, and billed bytes identical across the two
    #: planner modes (the byte-identity acceptance criterion).
    billing_identical: bool


@dataclass
class PlannerFanoutResult:
    points: List[PlannerFanoutPoint]
    title: str = "Planner fan-out: sharded Q3/Q4 and the cost planner vs scan"
    telemetry: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for point in self.points:
            for cell in point.cells:
                rows.append(
                    (
                        point.shards,
                        point.children,
                        cell.query,
                        cell.rows,
                        cell.selects,
                        cell.ops,
                        cell.bytes_moved,
                    )
                )
        fanout = render_table(
            (
                "Shards", "Children", "Query", "Rows", "Fan-out sel",
                "Select ops", "Bytes",
            ),
            rows,
            title=self.title,
        )
        mode_rows = []
        for point in self.points:
            for mode in point.planner_modes:
                mode_rows.append(
                    (
                        point.shards,
                        point.children,
                        mode.planner,
                        mode.rows,
                        mode.ops,
                        mode.bytes_moved,
                        "yes" if point.billing_identical else "NO",
                    )
                )
        modes = render_table(
            (
                "Shards", "Children", "Planner", "Rows", "Select ops",
                "Bytes", "Billing identical",
            ),
            mode_rows,
            title="Q4 by planner mode (cost vs scan)",
        )
        return fanout + "\n\n" + modes

    def as_json(self) -> Dict[str, object]:
        return {
            "points": [
                {
                    "shards": point.shards,
                    "children": point.children,
                    "items": point.items,
                    "cells": [
                        {
                            "query": cell.query,
                            "rows": cell.rows,
                            "selects": cell.selects,
                            "ops": cell.ops,
                            "bytes": cell.bytes_moved,
                        }
                        for cell in point.cells
                    ],
                    "planner_modes": [
                        {
                            "planner": mode.planner,
                            "rows": mode.rows,
                            "ops": mode.ops,
                            "bytes": mode.bytes_moved,
                        }
                        for mode in point.planner_modes
                    ],
                    "billing_identical": point.billing_identical,
                }
                for point in self.points
            ],
        }


def _planner_fanout_items(
    programs: int, files: int, children: int
) -> List[Tuple[str, List[Tuple[str, str]]]]:
    """Provenance trees shaped like the paper's Q3/Q4 workloads: each
    program's proc item outputs ``files`` first-generation files, each
    of which derives ``children`` second-generation files.  The
    second-generation leaves are derived from nothing further, so Q4's
    last frontier probes values no shard holds and finds nothing."""
    items: List[Tuple[str, List[Tuple[str, str]]]] = []
    for p in range(programs):
        proc = f"proc{p:03d}_0"
        items.append(
            (proc, [("type", "proc"), ("name", f"prog-{p:03d}")])
        )
        for i in range(files):
            gen1 = f"g1-{p:03d}-{i:02d}_0"
            items.append((gen1, [("type", "file"), ("input", proc)]))
            for j in range(children):
                gen2 = f"g2-{p:03d}-{i:02d}-{j:02d}_0"
                items.append((gen2, [("type", "file"), ("input", gen1)]))
    return items


def _load_routed_domain(account, router, items) -> None:
    """Populate the shard domains the way the routed write pipeline
    does: group items by the owning shard (uuid hash), then batch-put
    each group into its domain."""
    grouped: Dict[str, List[Tuple[str, List[Tuple[str, str]]]]] = {}
    for name, pairs in items:
        uuid = name.rpartition("_")[0] or name
        grouped.setdefault(router.domain_for(uuid), []).append((name, pairs))
    for domain in router.domains:
        account.simpledb.create_domain(domain)
    requests = []
    for domain, group in grouped.items():
        requests.extend(
            account.simpledb.batch_put_request(domain, group[i : i + 25])
            for i in range(0, len(group), 25)
        )
    account.scheduler.execute_batch(requests, 40)
    account.settle(120.0)


def planner_fanout(
    shard_counts: Sequence[int] = (1, 2, 4),
    children_counts: Sequence[int] = (2, 6),
    programs: int = 18,
    files: int = 6,
    seed: int = 0,
) -> PlannerFanoutResult:
    """The cost-planner experiment: attribute-rooted Q3/Q4 over
    provenance trees spread across N shards.

    Routing is the uuid hash alone, which cannot place a value lookup,
    so every attribute-rooted chunk visits every shard: a cell's select
    chains grow with the shard count while its rows and bytes do not.
    The planner axis runs the same Q4 under the cost planner and the
    index-off scan; rows, ``Select`` operations, and billed bytes must
    be identical across both — planning moves Python cost, never
    answers or billing.
    """
    points: List[PlannerFanoutPoint] = []
    account = None
    target = "prog-000"
    for shards in shard_counts:
        for children in children_counts:
            account = CloudAccount(seed=seed)
            router = ShardRouter(shards=shards)
            items = _planner_fanout_items(programs, files, children)
            _load_routed_domain(account, router, items)
            engine = SimpleDBQueryEngine(account, router=router)
            queries = {
                "q3": lambda: engine.q3_direct_outputs(target)[0],
                "q4": lambda: engine.q4_all_descendants(target)[0],
            }
            cells: List[PlannerFanoutCell] = []
            for query_name, run in queries.items():
                selects = engine.fanout.fanned_out_selects
                answer, ops, moved = _metered(account, run)
                cells.append(
                    PlannerFanoutCell(
                        query=query_name,
                        rows=len(answer),
                        selects=engine.fanout.fanned_out_selects - selects,
                        ops=ops,
                        bytes_moved=moved,
                    )
                )

            modes: List[PlannerModeCell] = []
            fingerprints = []
            for planner in ("cost", "scan"):
                account.simpledb.use_indexes = planner == "cost"
                answer, ops, moved = _metered(account, queries["q4"])
                fingerprints.append((repr(answer), ops, moved))
                modes.append(
                    PlannerModeCell(
                        planner=planner,
                        rows=len(answer),
                        ops=ops,
                        bytes_moved=moved,
                    )
                )
            account.simpledb.use_indexes = True

            points.append(
                PlannerFanoutPoint(
                    shards=shards,
                    children=children,
                    items=len(items),
                    cells=cells,
                    planner_modes=modes,
                    billing_identical=(
                        fingerprints[0] == fingerprints[1]
                    ),
                )
            )
    return PlannerFanoutResult(
        points=points,
        telemetry=(
            account.telemetry.metrics.snapshot() if account is not None else {}
        ),
    )


# ==========================================================================
# Chaos schedules and SLO sizing — the fault-schedule scenario family
# ==========================================================================

def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


@dataclass
class FleetPoint:
    """What every chaos-family fleet run measures (the
    :class:`~repro.workloads.fleet.P3FleetRun` it drained)."""

    clients: int
    schedule: str
    flushes: int
    committed: int
    #: Commit-log entries beyond the distinct transactions (a lapsed
    #: lease delivered one transaction to two daemons).
    recommits: int
    elapsed_seconds: float
    #: Last client finish to last commit — how long the WAL backlog
    #: outlived the writers.
    drain_seconds: float
    lag_mean_s: float
    lag_p99_s: float
    lag_max_s: float
    #: Recurring-crash kills and schedule-driven respawns that happened.
    crashes_fired: int
    respawns: int


def _fleet_point_fields(run: P3FleetRun, recurring) -> Dict[str, object]:
    """The :class:`FleetPoint` fields of a settled run; ``recurring`` is
    the schedule's recurring crash (None: no crashes)."""
    lags = run.lags
    return dict(
        flushes=run.flushes,
        committed=run.committed,
        recommits=run.recommits,
        elapsed_seconds=max(run.clients_done_at, run.last_commit),
        drain_seconds=max(0.0, run.last_commit - run.clients_done_at),
        lag_mean_s=sum(lags) / len(lags) if lags else 0.0,
        lag_p99_s=_percentile(lags, 0.99),
        lag_max_s=max(lags, default=0.0),
        crashes_fired=len(recurring.fired_at) if recurring else 0,
        respawns=sum(
            policy.respawns
            for policy in run.account.faults.schedule.respawns.values()
        ),
    )


def _recovery_identical(outcomes: Dict[Tuple, FleetOutcome]) -> bool:
    """The chaos recovery invariant over a sweep keyed ``(..., schedule)``:
    every ``crashes`` run ends with Q1-Q4 answers and query billing
    byte-identical to the ``steady`` run of the same cell."""
    for key, crashed in outcomes.items():
        steady = outcomes.get(key[:-1] + ("steady",))
        if key[-1] == "crashes" and steady is not None and (
            steady.answers != crashed.answers
            or steady.query_billing != crashed.query_billing
        ):
            return False
    return True


@dataclass
class ChaosSLOPoint(FleetPoint):
    """One (fleet size, daemon count, schedule) chaos run's measurements."""

    daemons: int
    #: Query-side readers' read-your-writes observations.
    reader_samples: int
    reader_stale_peak: int
    reader_final_stale: int
    #: p99 commit lag re-derived from record-lifecycle traces
    #: (``wal.logged`` -> ``commit.done`` spans) instead of the daemons'
    #: commit-log bookkeeping — the two derivations are independent.
    lag_p99_trace_s: float
    #: Per-transaction trace-derived lags match the commit-log lags
    #: exactly (same txn set, same float values).
    trace_lags_match: bool


@dataclass
class ChaosSLOResult:
    """The chaos sweep: daemon count x fleet size x fault schedule."""

    points: List[ChaosSLOPoint]
    slo_p99_s: float
    #: (clients, schedule) -> min daemons holding p99 lag <= slo_p99_s
    #: among the swept counts (None: no swept count was enough).
    daemons_for_slo: Dict[Tuple[int, str], Optional[int]]
    #: Crashed-and-respawned runs end byte-identical to the uncrashed
    #: run at the same (clients, daemons): Q1-Q4 answers and their
    #: billing — the chaos recovery invariant.
    recovery_identical: bool
    #: ``c<clients>-d<daemons>-<schedule>`` -> that run's final metrics
    #: snapshot (the BENCH ``telemetry`` section carries these).
    telemetry: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def render(self) -> str:
        table = render_table(
            (
                "Clients", "Daemons", "Schedule", "Committed", "Drain (s)",
                "Lag mean", "Lag p99", "p99 (trace)", "Lag max", "Crashes",
                "Respawns", "Stale peak",
            ),
            [
                (
                    p.clients,
                    p.daemons,
                    p.schedule,
                    f"{p.committed}/{p.flushes}"
                    + (f" +{p.recommits}" if p.recommits else ""),
                    f"{p.drain_seconds:.1f}",
                    f"{p.lag_mean_s:.1f}s",
                    f"{p.lag_p99_s:.1f}s",
                    f"{p.lag_p99_trace_s:.1f}s"
                    + ("" if p.trace_lags_match else "!"),
                    f"{p.lag_max_s:.1f}s",
                    p.crashes_fired,
                    p.respawns,
                    p.reader_stale_peak,
                )
                for p in self.points
            ],
            title="Chaos sweep: daemons x fleet x fault schedule",
        )
        slo_rows = [
            (clients, schedule, "-" if daemons is None else daemons)
            for (clients, schedule), daemons in sorted(
                self.daemons_for_slo.items()
            )
        ]
        slo_table = render_table(
            ("Clients", "Schedule", f"Daemons for p99 <= {self.slo_p99_s:.0f}s"),
            slo_rows,
            title="SLO sizing: daemons needed to hold the p99 commit lag",
        )
        invariant = (
            "chaos recovery invariant (crashed+respawned == uncrashed): "
            f"{self.recovery_identical}"
        )
        return "\n\n".join([table, slo_table, invariant])

    def as_json(self) -> Dict[str, object]:
        return {
            "slo_p99_s": self.slo_p99_s,
            "recovery_identical": self.recovery_identical,
            "points": [asdict(p) for p in self.points],
            "daemons_for_slo": [
                {"clients": clients, "schedule": schedule, "daemons": daemons}
                for (clients, schedule), daemons in sorted(
                    self.daemons_for_slo.items()
                )
            ],
        }


#: The named fault schedules the chaos sweep understands.
CHAOS_SCHEDULES = ("steady", "crashes", "degraded")

#: The chaos fleet's file size and metadata records per file version.
CHAOS_FLEET = dict(file_bytes=16 * 1024, extra_attributes=8)
#: ``crashes`` kills ``pool-0`` every 20 s from t=10 s on.
CRASHES = dict(every_s=20.0, start_at=10.0)
#: ``degraded`` is the window [8 s, 40 s): every request pays 0.25 s
#: more and SQS delivers duplicates at a 0.25 rate.
DEGRADED = dict(t1=8.0, t2=40.0, add_latency_s=0.25, duplicate_delivery_rate=0.25)


def _chaos_fleet(clients, files_per_client, daemons, schedule, seed, backend="sim"):
    """Arm ``schedule``, then build, drain and fingerprint one chaos
    fleet; returns ``(run, outcome, recurring crash or None)``."""
    account = CloudAccount(seed=seed, backend=backend)
    recurring = None
    if schedule == "crashes":
        recurring = account.faults.schedule.crash_every("pool-0", **CRASHES)
    elif schedule == "degraded":
        account.faults.schedule.degrade(**DEGRADED)
    fleet = make_fleet(clients, files_per_client, seed=seed, **CHAOS_FLEET)
    run = P3FleetRun(account, fleet, daemons=daemons, seed=seed)
    run.drain()
    return run, run.settled_fingerprint(), recurring


def chaos_fleet_run(
    clients: int = 4,
    files_per_client: int = 3,
    daemons: int = 1,
    schedule: str = "steady",
    seed: int = 0,
    backend: str = "sim",
) -> Tuple[ChaosSLOPoint, FleetOutcome]:
    """One chaos run: a P3 fleet on the kernel under a named fault
    schedule, with a concurrent Q1/Q3 reader, drained to quiescence and
    fingerprinted.  Returns the run's point and its settled outcome.

    Schedules:

    - ``steady`` — no faults (the baseline the invariant compares to).
    - ``crashes`` — the commit daemon ``pool-0`` is killed on the
      :data:`CRASHES` cadence and respawned two seconds later as a
      *fresh* :class:`~repro.core.commit_daemon.CommitDaemon` resuming
      from the SQS queue mid-run; SQS redelivers whatever the dead
      incarnation had received but not deleted.
    - ``degraded`` — the :data:`DEGRADED` network-degradation window:
      every request pays extra latency and SQS delivers duplicates
      until the window closes and the baseline is restored.

    Deterministic per (arguments, seed); the recovery invariant is that
    the ``crashes`` run's settled store answers Q1-Q4 byte-identically
    to the ``steady`` run's.
    """
    if schedule not in CHAOS_SCHEDULES:
        raise ValueError(
            f"unknown chaos schedule {schedule!r} (one of {CHAOS_SCHEDULES})"
        )
    run, outcome, recurring = _chaos_fleet(
        clients, files_per_client, daemons, schedule, seed, backend
    )
    # Re-derive the commit lags from record-lifecycle traces.  Both sides
    # keep the *first* commit per transaction (SQS duplicate delivery can
    # commit a txn twice; the trace's ``commit.done`` records the earliest
    # time), so the comparison is per-txn minimum against per-txn span.
    first_lags: Dict[str, float] = {}
    for record, lag in zip(run.commit_records, run.lags):
        first_lags[record.txn_id] = min(lag, first_lags.get(record.txn_id, lag))
    trace_lags = dict(run.account.telemetry.tracer.commit_lags())
    q1_samples = [s for s in run.samples if s.query == "q1"]
    point = ChaosSLOPoint(
        clients=clients,
        daemons=daemons,
        schedule=schedule,
        **_fleet_point_fields(run, recurring),
        reader_samples=len(run.samples),
        reader_stale_peak=max((s.stale for s in q1_samples), default=0),
        reader_final_stale=q1_samples[-1].stale if q1_samples else 0,
        lag_p99_trace_s=_percentile(list(trace_lags.values()), 0.99),
        trace_lags_match=first_lags == trace_lags,
    )
    return point, outcome


def chaos_slo_experiment(
    fleet_sizes: Sequence[int] = (2, 4),
    daemon_counts: Sequence[int] = (1, 2),
    schedules: Sequence[str] = CHAOS_SCHEDULES,
    slo_p99_s: float = 30.0,
    seed: int = 0,
) -> ChaosSLOResult:
    """The chaos sweep: daemon count x fleet size x fault schedule.

    Two headline outputs beyond the raw points:

    - **SLO sizing** — for each (fleet size, schedule), the minimum
      swept daemon count holding the p99 commit lag at or under
      ``slo_p99_s`` (the "how many daemons do I need" table; the drain
      knee is where one daemon stops being enough).
    - **The chaos recovery invariant** — for every (fleet size, daemon
      count), the ``crashes`` run (scheduled daemon kills + fresh-daemon
      respawns) must end with Q1-Q4 answers and query billing
      byte-identical to the ``steady`` run: the WAL, not any daemon's
      memory, is the authority.
    """
    runs = {
        (clients, daemons, schedule): chaos_fleet_run(
            clients=clients, daemons=daemons, schedule=schedule, seed=seed
        )
        for clients in fleet_sizes
        for daemons in daemon_counts
        for schedule in schedules
    }
    points = {key: point for key, (point, _) in runs.items()}
    outcomes = {key: outcome for key, (_, outcome) in runs.items()}

    daemons_for_slo = {
        (clients, schedule): next(
            (
                daemons
                for daemons in sorted(daemon_counts)
                if points[(clients, daemons, schedule)].lag_p99_s
                <= slo_p99_s
            ),
            None,
        )
        for clients in fleet_sizes
        for schedule in schedules
    }
    return ChaosSLOResult(
        points=list(points.values()),
        slo_p99_s=slo_p99_s,
        daemons_for_slo=daemons_for_slo,
        recovery_identical=_recovery_identical(outcomes),
        telemetry={
            f"c{clients}-d{daemons}-{schedule}": outcome.telemetry
            for (clients, daemons, schedule), outcome in outcomes.items()
        },
    )


#: The fleet-sizing modes the autoscale sweep compares.  ``static-N``
#: pins N commit daemons for the whole run — the chaos sweep's
#: configuration at ``daemons=N``; ``auto`` runs the supervisor control
#: plane.
AUTOSCALE_MODES = ("static-1", "static-2", "auto")

#: Schedules the autoscale sweep runs (the chaos ``degraded`` axis is
#: covered by BENCH_chaos_slo; the autoscaler targets the crash tail).
AUTOSCALE_SCHEDULES = ("steady", "crashes")

#: Files each client of the autoscale fleet closes.
AUTOSCALE_FILES_PER_CLIENT = 3


@dataclass
class AutoscalePoint(FleetPoint):
    """One (fleet size, mode, schedule) autoscale run's measurements."""

    mode: str
    #: Read-staleness SLO axis: p99 of the Q1 readers'
    #: :attr:`~repro.workloads.fleet.ReaderSample.stale` observations.
    stale_p99: float
    #: Provisioned daemon time: Σ over every ``pool-*`` incarnation of
    #: (finish − first activation) — the fleet-cost axis the autoscaler
    #: must beat by scaling down when load subsides.
    daemon_seconds: float
    pool_peak: int
    pool_end: int
    scale_ups: int
    scale_downs: int
    window_adjusts: int


@dataclass
class AutoscaleSLOResult:
    """The autoscale sweep: fleet size x mode x fault schedule.

    The headline extends BENCH_chaos_slo's negative result: where *no*
    static daemon count met the p99 commit-lag SLO under recurring
    crashes, the supervisor does — and still spends fewer provisioned
    daemon-seconds than the largest static fleet, because it scales
    back down once the WAL backlog clears.
    """

    points: List[AutoscalePoint]
    slo_p99_s: float
    #: (clients, schedule, mode) -> that cell's p99 lag met the SLO.
    slo_met: Dict[Tuple[int, str, str], bool]
    #: (clients, schedule) cells where every static mode misses the SLO
    #: but ``auto`` meets it — the filled ``null`` cells.
    filled_cells: List[Tuple[int, str]]
    #: (clients, schedule) -> auto used fewer daemon-seconds than the
    #: largest static fleet in that cell.
    auto_cheaper: Dict[Tuple[int, str], bool]
    #: Every crashes run ends byte-identical (Q1-Q4 answers + query
    #: billing) to the same-mode steady run.
    recovery_identical: bool
    telemetry: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def render(self) -> str:
        table = render_table(
            (
                "Clients", "Mode", "Schedule", "Committed", "Lag p99",
                "SLO", "Stale p99", "Daemon-s", "Pool peak/end",
                "Scale up/down", "Crashes", "Respawns",
            ),
            [
                (
                    p.clients,
                    p.mode,
                    p.schedule,
                    f"{p.committed}/{p.flushes}"
                    + (f" +{p.recommits}" if p.recommits else ""),
                    f"{p.lag_p99_s:.1f}s",
                    "ok"
                    if self.slo_met[(p.clients, p.schedule, p.mode)]
                    else "MISS",
                    f"{p.stale_p99:.0f}",
                    f"{p.daemon_seconds:.0f}",
                    f"{p.pool_peak}/{p.pool_end}",
                    f"{p.scale_ups}/{p.scale_downs}",
                    p.crashes_fired,
                    p.respawns,
                )
                for p in self.points
            ],
            title="Autoscale sweep: fleet x mode x fault schedule",
        )
        filled = ", ".join(
            f"(clients={c}, {s})" for c, s in self.filled_cells
        ) or "none"
        lines = [
            table,
            f"p99 commit-lag SLO: {self.slo_p99_s:.0f}s",
            f"null cells filled by the autoscaler: {filled}",
            "auto cheaper than largest static fleet: "
            + ", ".join(
                f"(clients={c}, {s}): {ok}"
                for (c, s), ok in sorted(self.auto_cheaper.items())
            ),
            "chaos recovery invariant (crashes == steady, per mode): "
            f"{self.recovery_identical}",
        ]
        return "\n\n".join(lines)

    def as_json(self) -> Dict[str, object]:
        return {
            "slo_p99_s": self.slo_p99_s,
            "recovery_identical": self.recovery_identical,
            "points": [
                {
                    **asdict(p),
                    "slo_met": self.slo_met[(p.clients, p.schedule, p.mode)],
                }
                for p in self.points
            ],
            "filled_cells": [
                {"clients": c, "schedule": s} for c, s in self.filled_cells
            ],
            "auto_cheaper": [
                {"clients": c, "schedule": s, "cheaper": ok}
                for (c, s), ok in sorted(self.auto_cheaper.items())
            ],
        }


def autoscale_fleet_run(
    clients: int = 4,
    mode: str = "auto",
    schedule: str = "crashes",
    seed: int = 0,
) -> Tuple[AutoscalePoint, FleetOutcome]:
    """One autoscale run: the chaos fleet of :func:`chaos_fleet_run`,
    with the commit-daemon pool sized either statically (``static-N``)
    or by the :class:`~repro.service.supervisor.Supervisor` control
    plane (``auto``).  Returns the run's point and its settled outcome.

    Both modes name their daemons ``pool-0..``, and the ``crashes``
    schedule kills ``pool-0`` on the same cadence — the only difference
    is the control plane.  ``static-N`` *is* the chaos sweep's run at
    ``daemons=N``: stock 30 s visibility timeout and a flat respawn
    delay.  The supervised pool receives with a tight visibility lease,
    respawns with exponential backoff, and grows/shrinks with the WAL —
    which is exactly what removes the stranded-message tail that makes
    every static count miss the p99 SLO under crashes.
    """
    if schedule not in AUTOSCALE_SCHEDULES:
        raise ValueError(
            f"unknown autoscale schedule {schedule!r} "
            f"(one of {AUTOSCALE_SCHEDULES})"
        )
    if mode != "auto" and not mode.startswith("static-"):
        raise ValueError(f"unknown autoscale mode {mode!r}")
    static_count = None if mode == "auto" else int(mode.split("-", 1)[1])
    run, outcome, recurring = _chaos_fleet(
        clients, AUTOSCALE_FILES_PER_CLIENT, static_count, schedule, seed
    )
    events = run.account.telemetry.events
    if run.supervisor is not None:
        pool_end = len(run.supervisor.pool)
        pool_peak = max(
            [pool_end]
            + [int(event["pool"]) for event in events.of_kind("supervisor.scale_up")]
        )
    else:
        pool_end = pool_peak = static_count
    q1_samples = [s for s in run.samples if s.query == "q1"]
    point = AutoscalePoint(
        clients=clients,
        mode=mode,
        schedule=schedule,
        **_fleet_point_fields(run, recurring),
        stale_p99=_percentile([float(s.stale) for s in q1_samples], 0.99),
        daemon_seconds=run.daemon_seconds,
        pool_peak=pool_peak,
        pool_end=pool_end,
        scale_ups=len(events.of_kind("supervisor.scale_up")),
        scale_downs=len(events.of_kind("supervisor.scale_down")),
        window_adjusts=len(events.of_kind("supervisor.window_adjust")),
    )
    return point, outcome


def autoscale_slo_experiment(
    fleet_sizes: Sequence[int] = (2, 4),
    modes: Sequence[str] = AUTOSCALE_MODES,
    schedules: Sequence[str] = AUTOSCALE_SCHEDULES,
    slo_p99_s: float = 30.0,
    seed: int = 0,
) -> AutoscaleSLOResult:
    """The autoscale sweep: fleet size x sizing mode x fault schedule.

    Headlines beyond the raw points:

    - **Filled null cells** — (fleet, schedule) cells where every
      static mode misses the p99 commit-lag SLO but the supervisor
      meets it (BENCH_chaos_slo's ``daemons: null`` rows, closed).
    - **Scale-down economy** — in each cell the supervisor uses fewer
      provisioned daemon-seconds than the largest static fleet.
    - **The chaos recovery invariant** — every ``crashes`` run ends
      with Q1-Q4 answers and query billing byte-identical to the
      same-mode ``steady`` run.
    """
    runs = {
        (clients, mode, schedule): autoscale_fleet_run(
            clients=clients, mode=mode, schedule=schedule, seed=seed
        )
        for clients in fleet_sizes
        for mode in modes
        for schedule in schedules
    }
    points = {key: point for key, (point, _) in runs.items()}
    outcomes = {key: outcome for key, (_, outcome) in runs.items()}

    slo_met = {
        (p.clients, p.schedule, p.mode): p.lag_p99_s <= slo_p99_s
        for p in points.values()
    }
    static_modes = [m for m in modes if m.startswith("static-")]
    filled_cells: List[Tuple[int, str]] = []
    auto_cheaper: Dict[Tuple[int, str], bool] = {}
    if "auto" in modes and static_modes:
        for clients in fleet_sizes:
            for schedule in schedules:
                statics_fail = all(
                    not slo_met[(clients, schedule, m)] for m in static_modes
                )
                if statics_fail and slo_met[(clients, schedule, "auto")]:
                    filled_cells.append((clients, schedule))
                max_static = max(
                    points[(clients, m, schedule)].daemon_seconds
                    for m in static_modes
                )
                auto_cheaper[(clients, schedule)] = (
                    points[(clients, "auto", schedule)].daemon_seconds
                    < max_static
                )

    return AutoscaleSLOResult(
        points=list(points.values()),
        slo_p99_s=slo_p99_s,
        slo_met=slo_met,
        filled_cells=filled_cells,
        auto_cheaper=auto_cheaper,
        recovery_identical=_recovery_identical(outcomes),
        telemetry={
            f"c{clients}-{mode}-{schedule}": outcome.telemetry
            for (clients, mode, schedule), outcome in outcomes.items()
        },
    )


@dataclass
class ChunkSweepResult:
    #: (chunk_bytes, elapsed seconds, message count)
    points: List[Tuple[int, float, int]]

    def render(self) -> str:
        return render_table(
            ("Chunk bytes", "Time (s)", "Messages"),
            [(c, f"{s:.1f}", n) for c, s, n in self.points],
            title="P3 WAL chunk-size ablation (8 KB is the SQS limit)",
        )


def ablation_chunk_size(
    target_bytes: int = 8 * 1024 * 1024,
    chunk_sizes: Sequence[int] = (1024, 2048, 4096, 8192),
    connections: int = 150,
    seed: int = 7,
) -> ChunkSweepResult:
    """Design-choice check for §4.3.3: bigger WAL chunks mean fewer SQS
    round trips; the 8 KB service limit is the best the client can do."""
    records = make_linux_compile_records(target_bytes=target_bytes, seed=seed)
    points: List[Tuple[int, float, int]] = []
    for chunk_bytes in chunk_sizes:
        account = CloudAccount(seed=seed)
        url = account.sqs.create_queue("bench")
        chunks = chunk_encoded(records, chunk_bytes)
        requests = [account.sqs.send_request(url, chunk) for chunk in chunks]
        makespan = account.scheduler.execute_batch(requests, connections).makespan
        points.append((chunk_bytes, makespan, len(chunks)))
    return ChunkSweepResult(points=points)
