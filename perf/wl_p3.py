"""``p3-fleet-sim``: the paper's protocol P3 under the simulation kernel.

A fleet of clients logs transactions to the SQS write-ahead log while
commit daemons drain it and a reader polls Q1/Q3, all interleaved by
``SimKernel`` and drained to quiescence.  Chosen because it is the only
workload that exercises ``core`` (WAL, commit daemon), ``cloud.sqs``,
``sim.kernel`` and the reader's query path; its virtual-time outputs are
the paper's own metrics and repeat exactly for one seed.
"""

from __future__ import annotations

import random
import time
from typing import Tuple

from repro.cloud import CloudAccount  # first: repro.backends imports it back
from repro.backends.parity import store_fingerprint
from repro.core.commit_daemon import CommitDaemon
from repro.core.p3_wal import ProtocolP3
from repro.query.engine import query_engine_for
from repro.sim import SimKernel
from repro.workloads import make_fleet
from repro.workloads.fleet import (
    FLEET_PROGRAM,
    FleetWatch,
    protocol_client_process,
    reader_process,
)

from common import (
    ACCOUNT_SEED,
    Rep,
    account_counts,
    metered,
    snapshot_counts,
    work_bytes,
)

DAEMONS = 2
THINK_S = 2.0
POLL_S = 1.0
#: Virtual seconds per ``kernel.run(until=...)`` call — the drain step
#: the repo's own kernel experiments use (five poll intervals).
SLICE_S = 5.0 * POLL_S


class P3FleetSim:
    name = "p3-fleet-sim"
    #: Some hundreds of kernel slices a run.
    tail = 0.90
    backend = "sim"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.clients = 4 if smoke else 64
        self.files = 2 if smoke else 8
        self.fingerprints = set()

    def describe(self) -> str:
        return (
            f"{self.clients} protocol clients x {self.files} files = "
            f"{self.clients * self.files} P3 flushes per repetition, {DAEMONS} "
            f"in-loop commit daemons, 1 Q1/Q3 reader, run in {SLICE_S:g} "
            "virtual-second kernel slices until the WAL is drained"
        )

    def setup(self) -> None:
        self.fleet = make_fleet(
            clients=self.clients,
            files_per_client=self.files,
            extra_attributes=24,
            seed=self.seed,
        )
        self.user_bytes = sum(work_bytes(c.works) for c in self.fleet)

    def repetition(self, index: int, tracer) -> Rep:
        account = CloudAccount(seed=ACCOUNT_SEED)
        protocol = ProtocolP3(account, client_id="fleet-shared")
        kernel = SimKernel(account)
        watch = FleetWatch()
        master = random.Random(self.seed)
        for client in self.fleet:
            rng = random.Random(master.randrange(1 << 30))
            kernel.spawn(
                protocol_client_process(protocol, client, THINK_S, rng, watch),
                name=client.client_id,
            )
        daemons = []
        for i in range(DAEMONS):
            daemon = CommitDaemon(
                account=account,
                queue_url=protocol.queue_url,
                bucket=protocol.bucket,
                domain=protocol.domain,
                router=protocol.router,
            )
            daemons.append(daemon)
            kernel.spawn(
                daemon.process(poll_interval=POLL_S), name=f"daemon-{i}", daemon=True
            )
        samples = []
        kernel.spawn(
            reader_process(
                account, protocol.router.domains, FLEET_PROGRAM, watch, samples,
                rng=random.Random(self.seed + 1),
            ),
            name="reader",
            daemon=True,
        )

        def busy() -> bool:
            return (
                any(p.alive and not p.daemon for p in kernel.processes)
                or account.sqs.pending_count(protocol.queue_url) > 0
            )

        latencies = []
        started = time.perf_counter()
        while busy():
            t0 = time.perf_counter()
            with tracer.op("slice"):
                kernel.run(until=account.now + SLICE_S)
            latencies.append((time.perf_counter() - t0) * 1e3)
        # One more beat so a commit cut mid-step finishes its bookkeeping.
        kernel.run(until=account.now + POLL_S)
        wall = time.perf_counter() - started

        lags = [record.lag for d in daemons for record in d.commit_log]
        last_commit = max(
            (record.committed_at for d in daemons for record in d.commit_log),
            default=account.now,
        )
        counts = account_counts(account)
        counts.update({
            "p3.commits": len(lags),
            "p3.virtual_s": account.now,
            "p3.reader_queries": len(samples),
        })
        if tracer.enabled:
            counts.update(snapshot_counts(account))
        _now, usd, cloud_ops, cloud_bytes = metered(account)
        account.settle(120.0)
        self.fingerprints.add(store_fingerprint(account))
        self.last = (account, protocol)
        flushes = self.clients * self.files
        failed = flushes - len(watch.flushed)
        return Rep(
            ops=flushes,
            wall_s=wall,
            latencies_ms=latencies,
            # Elapsed is when the work ended — the last commit — not the
            # drain loop's quantized horizon.
            cloud=(last_commit, usd, cloud_ops, cloud_bytes),
            user_bytes=self.user_bytes,
            store_bytes=account.simpledb.index_memory_bytes(),
            failed=failed,
            counts=counts,
            samples={"p3.commit_lag_vs": lags},
        )

    def check(self) -> Tuple[int, int, dict]:
        """The WAL must be drained, Q2 must answer for every flushed
        path, and every repetition must leave the same store."""
        account, protocol = self.last
        checks, failed = 2, 0
        if account.sqs.pending_count(protocol.queue_url) != 0:
            failed += 1
            print("CHECK FAILED: WAL queue not drained")
        if len(self.fingerprints) != 1:
            failed += 1
            print(f"CHECK FAILED: {self.name} fingerprints {self.fingerprints}")
        engine = query_engine_for("p3", account, router=protocol.router)
        for client in self.fleet:
            for work in client.works:
                checks += 1
                answer, _stats = engine.q2_object_provenance(work.primary.path)
                if work.primary.path not in answer.get("name", []):
                    failed += 1
                    print(f"CHECK FAILED: Q2 has no answer for {work.primary.path}")
        return checks, failed, {}

    def close(self) -> None:
        pass
