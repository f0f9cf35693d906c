"""The client-fleet simulator.

Drives dozens-to-thousands of simulated PA-S3fs clients through the
multi-tenant :class:`~repro.service.gateway.IngestGateway` under a fixed
seed.  Each client runs a small synthetic pipeline: one worker process
reads an input and writes a chain of output files, so the fleet's merged
provenance exercises every query shape — Q2 per-object lookups, Q3's
program→outputs select, and a Q4 closure deeper than one hop (each
client's later files derive from its earlier ones).

Determinism is the point: client uuids are namespaced by client id
(``c0007-f002``), sizes and chain shapes come from one seeded RNG, and
the round-robin submission order is fixed by the same seed — so the same
seed and shard count reproduce identical billing totals and identical
query answers, which is what lets the scaling benchmark compare shard
counts on everything *except* the sharding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.simpledb import prepare_select  # noqa: F401 - perf/tracing.py wraps it here
from repro.obs.tracing import READ_FIRST
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import FlushIntent
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.query.engine import SimpleDBQueryEngine, SimpleDBQueryPlans
from repro.sim import Delay, SimKernel

from repro.core.commit_daemon import CommitDaemon
from repro.core.p3_wal import ProtocolP3
from repro.core.protocol_base import DomainRouter, FlushWork
from repro.core.wal_messages import parse_message
from repro.workloads.base import MOUNT

#: The program name every fleet worker runs under (the Q3/Q4 target).
FLEET_PROGRAM = "fleetworker"


@dataclass
class FleetClient:
    """One simulated client: an id and its ordered flush stream."""

    client_id: str
    works: List[FlushWork] = field(default_factory=list)

    def file_paths(self) -> List[str]:
        return [work.primary.path for work in self.works]


def make_fleet(
    clients: int = 16,
    files_per_client: int = 4,
    file_bytes: int = 32 * 1024,
    extra_attributes: int = 24,
    seed: int = 0,
) -> List[FleetClient]:
    """Build a deterministic fleet of clients and their flush streams.

    Args:
        clients: number of simulated clients.
        files_per_client: output files each client closes.
        file_bytes: nominal data size per file (±25 % seeded jitter).
        extra_attributes: synthetic metadata records per file version —
            the attribute-pair volume that loads SimpleDB's per-domain
            indexing pipeline (more pairs ⇒ sharding matters more).
        seed: fixes sizes, chain shapes, and everything downstream.
    """
    rng = random.Random(seed)
    fleet: List[FleetClient] = []
    for c in range(clients):
        cid = f"c{c:04d}"
        client = FleetClient(client_id=cid)

        proc_ref = NodeRef(f"{cid}-p0", 0)
        proc_bundle = ProvenanceBundle(uuid=proc_ref.uuid)
        proc_bundle.add(ProvenanceRecord(proc_ref, "type", "proc"))
        proc_bundle.add(ProvenanceRecord(proc_ref, "name", FLEET_PROGRAM))
        proc_bundle.add(
            ProvenanceRecord(
                proc_ref, "argv", f"{FLEET_PROGRAM} --client {cid}"
            )
        )
        proc_bundle.add(ProvenanceRecord(proc_ref, "input", f"/local/{cid}/seed.dat"))

        previous_ref: Optional[NodeRef] = None
        for j in range(files_per_client):
            path = f"{MOUNT}fleet/{cid}/f{j:03d}.dat"
            ref = NodeRef(f"{cid}-f{j:03d}", 1)
            size = int(file_bytes * rng.uniform(0.75, 1.25))
            bundle = ProvenanceBundle(uuid=ref.uuid)
            bundle.add(ProvenanceRecord(ref, "type", "file"))
            bundle.add(ProvenanceRecord(ref, "name", path))
            bundle.add(ProvenanceRecord(ref, "input", proc_ref))
            # Half the files (after the first) also derive from the
            # previous output, giving Q4 a closure deeper than one hop.
            if previous_ref is not None and rng.random() < 0.5:
                bundle.add(ProvenanceRecord(ref, "input", previous_ref))
            for k in range(extra_attributes):
                bundle.add(
                    ProvenanceRecord(
                        ref, f"meta{k:03d}", f"{cid}:{j}:{rng.randrange(1 << 30)}"
                    )
                )
            bundles = [bundle] if j > 0 else [proc_bundle, bundle]
            client.works.append(
                FlushWork(
                    primary=FlushIntent(
                        path=path,
                        uuid=ref.uuid,
                        ref=ref,
                        blob=Blob.synthetic(size, f"{path}@{ref.version}"),
                    ),
                    bundles=bundles,
                )
            )
            previous_ref = ref
        fleet.append(client)
    return fleet


@dataclass
class FleetRunResult:
    """What one fleet run through the gateway measured."""

    clients: int
    flushes: int
    elapsed_seconds: float
    operations: int
    bytes_transmitted: int
    cost_usd: float

    @property
    def flushes_per_second(self) -> float:
        """Total commit throughput in virtual time — the scaling metric."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.flushes / self.elapsed_seconds


def run_fleet(
    account: CloudAccount,
    gateway,
    fleet: List[FleetClient],
    seed: int = 0,
) -> FleetRunResult:
    """Drive the fleet through the gateway, one batching window per
    round: every live client submits its next flush, then the gateway
    coalesces the window.  Client order within a round is shuffled by
    the seeded RNG (clients are concurrent, arrival order is not fixed)
    but deterministically so."""
    rng = random.Random(seed)
    stopwatch = account.stopwatch()
    ops_before = account.billing.operation_count()
    bytes_before = account.billing.bytes_transmitted()
    cost_before = account.billing.cost()

    cursors: Dict[str, int] = {client.client_id: 0 for client in fleet}
    by_id = {client.client_id: client for client in fleet}
    flushes = 0
    while True:
        live = [
            cid for cid, cursor in cursors.items()
            if cursor < len(by_id[cid].works)
        ]
        if not live:
            break
        rng.shuffle(live)
        for cid in live:
            gateway.submit(cid, by_id[cid].works[cursors[cid]])
            cursors[cid] += 1
            flushes += 1
        gateway.flush_pending()

    return FleetRunResult(
        clients=len(fleet),
        flushes=flushes,
        elapsed_seconds=stopwatch.elapsed(),
        operations=account.billing.operation_count() - ops_before,
        bytes_transmitted=account.billing.bytes_transmitted() - bytes_before,
        cost_usd=account.billing.cost() - cost_before,
    )


# ==========================================================================
# Kernel-driven execution
# ==========================================================================

def client_process(
    gateway, client: FleetClient, think_s: float, rng: random.Random
) -> Generator:
    """One fleet client as a kernel process: submit a flush into the
    gateway's current window, think for a seeded-jittered interval,
    repeat.  Submission itself is instantaneous — the gateway's
    *time-based* window decides when the flush actually ships."""
    for work in client.works:
        gateway.submit(client.client_id, work)
        yield Delay(think_s * rng.uniform(0.5, 1.5))


def run_fleet_kernel(
    account: CloudAccount,
    gateway,
    fleet: List[FleetClient],
    seed: int = 0,
    think_s: float = 0.5,
    window_s: float = 0.25,
) -> FleetRunResult:
    """Drive the fleet concurrently on the simulation kernel: every
    client is its own process, and the gateway flushes *time-based*
    coalescing windows every ``window_s`` virtual seconds.  Deterministic
    for a fixed seed and fleet."""
    kernel = SimKernel(account)
    stopwatch = account.stopwatch()
    ops_before = account.billing.operation_count()
    bytes_before = account.billing.bytes_transmitted()
    cost_before = account.billing.cost()

    kernel.spawn(gateway.process(window_s), name="gateway", daemon=True)
    master = random.Random(seed)
    for client in fleet:
        rng = random.Random(master.randrange(1 << 30))
        kernel.spawn(
            client_process(gateway, client, think_s, rng), name=client.client_id
        )
    kernel.run()
    # Let the gateway ship the tail windows the clients left behind
    # (``busy`` also covers a window cut mid-flush by the run horizon).
    # Respawn policies spawn replacement incarnations the moment the old
    # one dies (scheduled for a later activation), so checking *any*
    # alive incarnation also covers a respawn still on its way; only a
    # gateway that is dead for good can never drain.
    while gateway.busy and any(
        p.alive for p in kernel.processes_named("gateway")
    ):
        kernel.run(until=account.now + window_s)

    return FleetRunResult(
        clients=len(fleet),
        flushes=sum(len(client.works) for client in fleet),
        elapsed_seconds=stopwatch.elapsed(),
        operations=account.billing.operation_count() - ops_before,
        bytes_transmitted=account.billing.bytes_transmitted() - bytes_before,
        cost_usd=account.billing.cost() - cost_before,
    )


@dataclass
class FleetWatch:
    """What the fleet has durably logged so far, by uuid.

    Clients running through :func:`protocol_client_process` record each
    work's primary uuid here the moment its flush plan completes (for P3
    that means *logged* — WAL complete — not yet committed).  Readers
    compare this against what their queries actually return, which is
    what makes read-your-writes staleness measurable: a uuid in
    ``flushed`` but absent from a query answer is a write the store has
    accepted but not yet made visible to that reader.
    """

    flushed: Set[str] = field(default_factory=set)
    flushed_at: Dict[str, float] = field(default_factory=dict)

    def note(self, uuid: str, now: float) -> None:
        if uuid not in self.flushed:
            self.flushed.add(uuid)
            self.flushed_at[uuid] = now


def protocol_client_process(
    protocol,
    client: FleetClient,
    think_s: float,
    rng: random.Random,
    watch: Optional[FleetWatch] = None,
) -> Generator:
    """One fleet client flushing directly through a storage protocol's
    ``flush_plan`` (P1, P2, or P3 — any protocol with a plan), thinking
    a seeded-jittered interval between files.  Mixed-protocol fleets are
    just different clients constructed over different protocols, all
    interleaved by the kernel."""
    for work in client.works:
        yield from protocol.flush_plan(work)
        if watch is not None:
            # The plan has fully resumed here, so account.now is this
            # client's own completion time for the flush.
            watch.note(work.primary.uuid, protocol.account.now)
        yield Delay(think_s * rng.uniform(0.5, 1.5))


# --------------------------------------------------------------------------
# Query-side readers: Q1-Q4 as kernel processes against a live store
# --------------------------------------------------------------------------

@dataclass
class ReaderSample:
    """One reader query against the store at virtual time ``t``.

    ``flushed`` counts uuids the fleet had durably logged when the query
    *started*; ``visible`` counts how many of those the answer actually
    surfaced.  ``stale`` is the read-your-writes gap — positive whenever
    eventual consistency, WAL backlog, or a crashed daemon keeps an
    acknowledged write out of view.  Only Q1 sees the whole store, so
    ``visible``/``stale`` are Q1-only; other shapes record answer size.
    """

    t: float
    query: str
    rows: int
    flushed: int = 0
    visible: int = 0

    @property
    def stale(self) -> int:
        return max(0, self.flushed - self.visible)


def reader_process(
    account: CloudAccount,
    domains: Sequence[str],
    program: str,
    watch: FleetWatch,
    samples: List[ReaderSample],
    interval_s: float = 5.0,
    queries: Sequence[str] = ("q1", "q3"),
    target_uuid: str = "",
    rng: Optional[random.Random] = None,
    label: str = "reader",
) -> Generator:
    """A query-side kernel process: round-robin Q1-Q4 against the
    provenance domain while clients are still writing it.

    Each query is the query engine's own plan
    (:class:`~repro.query.engine.SimpleDBQueryPlans`), run with
    ``yield from``: the reader issues exactly the requests the
    synchronous engine would.  ``domains`` is the store's one provenance
    domain, as a sequence.  Q2 reads ``target_uuid``, or the first uuid
    the fleet logged.  Each query appends a :class:`ReaderSample`; Q1
    samples additionally score read-your-writes staleness against
    ``watch``.  Spawn with ``daemon=True`` — readers poll forever; the
    experiment's run horizon stops them.  Deterministic when ``rng`` is
    seeded (jitters the inter-query think time the way clients jitter
    theirs).
    """
    if len(domains) != 1:
        raise ValueError(f"a reader queries one provenance domain (got {domains!r})")
    plans = SimpleDBQueryPlans(account, DomainRouter(domains[0]))
    shapes = {
        "q1": lambda: plans.q1_plan(),
        "q2": lambda: plans.q2_uuid_plan(target_uuid or min(watch.flushed, default="")),
        "q3": lambda: plans.q3_plan(program),
        "q4": lambda: plans.q4_plan(program),
    }
    unknown = [kind for kind in queries if kind not in shapes]
    if unknown:
        raise ValueError(f"unknown reader queries {unknown!r}")
    rng = rng if rng is not None else random.Random(0)
    tracer = account.telemetry.tracer
    staleness_gauge = account.telemetry.metrics.gauge(
        "reader.staleness", reader=label
    )
    query_counter = account.telemetry.metrics.counter(
        "reader.queries", reader=label
    )
    while True:
        for kind in queries:
            started = account.now
            # Snapshot at query start: a write flushed *during* the
            # multi-page query must not mask staleness of the writes
            # the store had already acknowledged when the query began.
            flushed_set = set(watch.flushed)
            answer = yield from shapes[kind]()
            sample = ReaderSample(t=round(started, 6), query=kind, rows=len(answer))
            if kind == "q1":
                visible_uuids = {ref.uuid for ref in answer.refs()}
                sample.flushed = len(flushed_set)
                sample.visible = len(flushed_set & visible_uuids)
                if tracer.enabled:
                    # First observation of each traced uuid closes its
                    # record lifecycle; staleness then falls out as the
                    # wal.logged -> read.first span.
                    observed_at = account.now
                    for uuid in sorted(visible_uuids):
                        tracer.mark_first(uuid, READ_FIRST, observed_at)
                staleness_gauge.set(sample.stale)
            samples.append(sample)
            query_counter.inc()
            yield Delay(interval_s * rng.uniform(0.5, 1.5))


# --------------------------------------------------------------------------
# P3 fleet runs: clients, a commit-daemon pool and readers
# --------------------------------------------------------------------------

#: Client think time and reader query interval (±50 % seeded jitter
#: each), the daemons' poll interval, the flat respawn delay of a static
#: pool's ``pool-0``, and the drain bound (only a transaction that can
#: never commit reaches it).
THINK_S = 2.0
READER_INTERVAL_S = 6.0
POLL_INTERVAL_S = 1.0
RESPAWN_DELAY_S = 2.0
DRAIN_HORIZON_S = 1800.0


@dataclass
class FleetOutcome:
    """A settled fleet run's fingerprint: what
    :meth:`P3FleetRun.settled_fingerprint` returns."""

    #: repr() of the settled Q1 rows and Q2/Q3/Q4 answers.
    answers: Tuple[str, str, str, str]
    #: (operations, bytes) billed by running Q1-Q4 against the settled
    #: store — identical stores bill identically.
    query_billing: Tuple[int, int]
    #: Final metrics-registry snapshot, after the Q1-Q4 queries billed.
    telemetry: Dict[str, object]
    #: :func:`store_fingerprint` of the settled store.
    store_fingerprint: str


class P3FleetRun:
    """One P3 fleet on the simulation kernel: ``fleet``'s clients log
    transactions into the shared WAL queue while a commit-daemon pool
    drains it and ``readers`` run Q1/Q3 against the filling store.

    The pool is ``daemons`` static :class:`CommitDaemon` processes named
    ``pool-<i>`` (``pool-0`` respawns after a kill) or, with
    ``daemons=None``, the pool of a
    :class:`~repro.service.supervisor.Supervisor`.  Fault schedules are
    the caller's, armed on ``account.faults``.  Client and reader RNGs
    come from one master RNG seeded with ``seed``: a run replays bit for
    bit.
    """

    def __init__(
        self,
        account: CloudAccount,
        fleet: List[FleetClient],
        daemons: Optional[int] = 1,
        readers: int = 1,
        seed: int = 0,
    ):
        self.account = account
        self.fleet = fleet
        self.protocol = protocol = ProtocolP3(account, client_id="fleet-shared")
        self.kernel = kernel = SimKernel(account)
        kernel.scrape_every(5.0)
        #: Every daemon object the pool ran, respawns included.
        self.daemons: List[CommitDaemon] = []
        self.samples: List[ReaderSample] = []
        self.supervisor = None
        if daemons is None:
            # Imported here so that importing this module does not load
            # the service tier (gateway, HTTP frontend) for static pools.
            from repro.service.supervisor import Supervisor, SupervisorConfig

            self.supervisor = Supervisor(
                account, kernel, self._fresh_daemon, protocol.queue_url,
                config=SupervisorConfig(poll_interval_s=POLL_INTERVAL_S),
            )
            self.supervisor.start()
            kernel.spawn(self.supervisor.process(), name="supervisor", daemon=True)
        elif daemons < 1:
            raise ValueError(f"a static pool needs >= 1 daemon (got {daemons})")
        else:
            for index in range(daemons):
                kernel.spawn(self._daemon_process(), name=f"pool-{index}", daemon=True)
            account.faults.schedule.respawn(
                "pool-0", self._daemon_process, delay_s=RESPAWN_DELAY_S
            )

        watch = FleetWatch()
        master = random.Random(seed)
        for client in fleet:
            rng = random.Random(master.randrange(1 << 30))
            kernel.spawn(
                protocol_client_process(protocol, client, THINK_S, rng, watch),
                name=client.client_id,
            )
        reader_rng = random.Random(master.randrange(1 << 30))
        for index in range(readers):
            kernel.spawn(
                reader_process(
                    account, protocol.router.domains, FLEET_PROGRAM, watch,
                    self.samples, interval_s=READER_INTERVAL_S,
                    rng=random.Random(reader_rng.randrange(1 << 30)),
                    label=f"reader-{index}",
                ),
                name=f"reader-{index}",
                daemon=True,
            )

    def _fresh_daemon(self) -> CommitDaemon:
        protocol = self.protocol
        daemon = CommitDaemon(
            account=self.account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
        )
        self.daemons.append(daemon)
        return daemon

    def _daemon_process(self) -> Generator:
        return self._fresh_daemon().process(poll_interval=POLL_INTERVAL_S)

    def drain(self) -> None:
        """Run the clients to completion and the pool until the WAL is
        empty, plus one beat so daemons finish commit bookkeeping cut
        mid-step; then record what the run committed."""
        account, kernel = self.account, self.kernel
        queue_url = self.protocol.queue_url
        kernel.run()
        self.clients_done_at = account.now
        horizon = account.now + DRAIN_HORIZON_S
        while account.sqs.pending_count(queue_url) > 0 and account.now < horizon:
            kernel.run(until=min(account.now + 5 * POLL_INTERVAL_S, horizon))
        kernel.run(until=account.now + 2 * POLL_INTERVAL_S)

        self.commit_records = [r for d in self.daemons for r in d.commit_log]
        self.flushes = sum(len(client.works) for client in self.fleet)
        # From durable facts, not the daemons' counters (a kill between a
        # delete wave and the daemon's resume loses the count, not the
        # commit): a transaction is committed when none of its WAL
        # messages is left, visible or leased, and commit records beyond
        # the distinct transactions are recommits (a lapsed lease).
        queued = {
            parse_message(body).txn_id
            for body in account.sqs.pending_bodies(queue_url)
        }
        self.committed = self.flushes - len(queued)
        txns = [record.txn_id for record in self.commit_records]
        self.recommits = len(txns) - len(set(txns))
        # Σ over pool incarnations of (finish − first activation), taken
        # before a settle inflates every surviving member's time equally.
        self.daemon_seconds = 0.0
        for process in kernel.processes:
            started, finished = process.domain.started_at, process.domain.finished_at
            if process.name.startswith("pool-") and started >= 0:
                self.daemon_seconds += (
                    finished if finished >= 0 else account.now
                ) - started

    @property
    def lags(self) -> List[float]:
        """Commit lag (log completion to commit completion) per record."""
        return [r.committed_at - r.logged_at for r in self.commit_records]

    @property
    def last_commit(self) -> float:
        return max(
            (r.committed_at for r in self.commit_records),
            default=self.clients_done_at,
        )

    def settled_fingerprint(self) -> FleetOutcome:
        """Settle the store, give the readers a final beat over it, and
        fingerprint it: the raw Q1 rows, the engine's Q2/Q3/Q4, what
        those queries billed, and :func:`store_fingerprint`.  Raises
        AssertionError if a reader query started after the settle
        answered differently from the engine.  Closes the account."""
        account, protocol, billing = self.account, self.protocol, self.account.billing
        account.settle(120.0)
        settled_at = account.now
        self.kernel.run(until=account.now + 2 * READER_INTERVAL_S)

        engine = SimpleDBQueryEngine(
            account, domain=protocol.domain, bucket=protocol.bucket
        )
        q1_rows = account.simpledb.select(f"select * from {protocol.domain}")
        ops_before = billing.operation_count()
        bytes_before = billing.bytes_received() + billing.bytes_transmitted()
        q2, _ = engine.q2_object_provenance(f"{MOUNT}fleet/c0000/f000.dat")
        q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
        q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
        query_billing = (
            billing.operation_count() - ops_before,
            billing.bytes_received() + billing.bytes_transmitted() - bytes_before,
        )
        # The readers run the engine's plans: over the settled store their
        # answers must be the engine's, to the row.
        expected = {"q1": len(q1_rows), "q3": len(q3)}
        for sample in self.samples:
            if sample.t >= settled_at and sample.rows != expected[sample.query]:
                raise AssertionError(
                    f"reader {sample.query} at t={sample.t} saw {sample.rows} "
                    f"rows over the settled store, the engine {expected[sample.query]}"
                )
        fingerprint = store_fingerprint(account, queue_urls=[protocol.queue_url])
        outcome = FleetOutcome(
            answers=(repr(q1_rows), repr(q2), repr(q3), repr(q4)),
            query_billing=query_billing,
            telemetry=account.telemetry.metrics.snapshot(),
            store_fingerprint=fingerprint,
        )
        account.close()
        return outcome
