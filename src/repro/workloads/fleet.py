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
from typing import Dict, Generator, List, Optional, Sequence, Set

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.simpledb import prepare_select
from repro.obs.tracing import READ_FIRST
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import FlushIntent
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.query.engine import IN_CHUNK
from repro.sim import Batch, Delay, SimKernel

from repro.core.protocol_base import FlushWork
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


def _select_plan(account: CloudAccount, expression: str) -> Generator:
    """One select chain as an effect plan: each page is a Batch, tokens
    follow sequentially.  Returns the accumulated rows."""
    prepared = prepare_select(expression)
    rows: List = []
    token = ""
    while True:
        batch = yield Batch(
            [account.simpledb.select_request(prepared, token)], connections=1
        )
        page = batch.results[0]
        rows.extend(page.rows)
        if page.complete:
            return rows
        token = page.next_token


def _reader_q1(account: CloudAccount, domains: Sequence[str]) -> Generator:
    rows: List = []
    for domain in domains:
        rows.extend((yield from _select_plan(
            account, f"select * from {domain}"
        )))
    return rows


def _reader_q2(
    account: CloudAccount, domains: Sequence[str], uuid: str
) -> Generator:
    rows: List = []
    for domain in domains:
        rows.extend((yield from _select_plan(
            account,
            f"select * from {domain} where itemName() like '{uuid}_%'",
        )))
    return rows


def _reader_q3(
    account: CloudAccount, domains: Sequence[str], program: str
) -> Generator:
    procs = []
    for domain in domains:
        rows = yield from _select_plan(
            account,
            f"select * from {domain} "
            f"where name = '{program}' and type = 'proc'",
        )
        procs.extend(name for name, _ in rows)
    outputs: List = []
    for chunk_start in range(0, len(procs), IN_CHUNK):
        chunk = procs[chunk_start : chunk_start + IN_CHUNK]
        quoted = ", ".join(f"'{name}'" for name in chunk)
        for domain in domains:
            rows = yield from _select_plan(
                account,
                f"select * from {domain} where input in ({quoted})",
            )
            outputs.extend(
                name for name, attrs in rows if "file" in attrs.get("type", [])
            )
    return sorted(set(outputs))


def _reader_q4(
    account: CloudAccount, domains: Sequence[str], program: str
) -> Generator:
    frontier = []
    for domain in domains:
        rows = yield from _select_plan(
            account,
            f"select * from {domain} "
            f"where name = '{program}' and type = 'proc'",
        )
        frontier.extend(name for name, _ in rows)
    seen: Set[str] = set()
    while frontier:
        next_frontier: List[str] = []
        for chunk_start in range(0, len(frontier), IN_CHUNK):
            chunk = frontier[chunk_start : chunk_start + IN_CHUNK]
            quoted = ", ".join(f"'{name}'" for name in chunk)
            for domain in domains:
                rows = yield from _select_plan(
                    account,
                    f"select * from {domain} where input in ({quoted})",
                )
                for name, _attrs in rows:
                    if name not in seen:
                        seen.add(name)
                        next_frontier.append(name)
        frontier = next_frontier
    return sorted(seen)


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
    """A query-side kernel process: round-robin Q1-Q4 shapes against the
    provenance domains while clients are still writing them.

    Each query appends a :class:`ReaderSample`; Q1 samples additionally
    score read-your-writes staleness against ``watch``.  Spawn with
    ``daemon=True`` — readers poll forever; the experiment's run horizon
    stops them.  Deterministic when ``rng`` is seeded (jitters the
    inter-query think time the way clients jitter theirs).
    """
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
            if kind == "q1":
                rows = yield from _reader_q1(account, domains)
                visible_uuids = {
                    NodeRef.parse(name).uuid
                    for name, _ in rows
                }
                visible = len(flushed_set & visible_uuids)
                sample = ReaderSample(
                    t=round(started, 6), query=kind, rows=len(rows),
                    flushed=len(flushed_set), visible=visible,
                )
                samples.append(sample)
                if tracer.enabled:
                    # First observation of each traced uuid closes its
                    # record lifecycle; staleness then falls out as the
                    # wal.logged -> read.first span.
                    observed_at = account.now
                    for uuid in sorted(visible_uuids):
                        tracer.mark_first(uuid, READ_FIRST, observed_at)
                staleness_gauge.set(sample.stale)
            elif kind == "q2":
                uuid = target_uuid or (sorted(watch.flushed)[0]
                                       if watch.flushed else "")
                rows = (yield from _reader_q2(account, domains, uuid)) if uuid else []
                samples.append(ReaderSample(
                    t=round(started, 6), query=kind, rows=len(rows),
                ))
            elif kind == "q3":
                outputs = yield from _reader_q3(account, domains, program)
                samples.append(ReaderSample(
                    t=round(started, 6), query=kind, rows=len(outputs),
                ))
            elif kind == "q4":
                closure = yield from _reader_q4(account, domains, program)
                samples.append(ReaderSample(
                    t=round(started, 6), query=kind, rows=len(closure),
                ))
            else:
                raise ValueError(f"unknown reader query {kind!r}")
            query_counter.inc()
            yield Delay(interval_s * rng.uniform(0.5, 1.5))

