"""``gateway-ingest-sim`` and ``gateway-ingest-local``: write-only ingest.

One generator, one gateway, two storage backends.  On ``sim`` the time
splits across request building, gateway coalescing, scheduling and the
in-memory service puts; on ``local`` sqlite and the filesystem do most
of the work.  They are the mechanism/bypass pair for any storage-side
change: it should move ``-local`` and predict no change on ``-sim``.
Each repetition pushes the whole fleet into a fresh account, because
ingest slows as the store grows — the size is part of the metric.
"""

from __future__ import annotations

import random
import tempfile
import time
from contextlib import nullcontext
from typing import Optional, Tuple

from repro.cloud import CloudAccount  # first: repro.backends imports it back
from repro.backends.parity import store_fingerprint
from repro.service import IngestGateway, ShardRouter
from repro.workloads import make_fleet

from common import (
    ACCOUNT_SEED,
    Rep,
    account_counts,
    close_and_reopen,
    metered,
    snapshot_counts,
    work_bytes,
)
from tracing import NullTracer

SHARDS = 4
EXTRA_ATTRIBUTES = 24
#: Clients per coalesced window, and windows of the ``-local`` size.
CLIENTS = 64
LOCAL_ROUNDS = 8

_NO_TRACE = NullTracer()


class GatewayIngest:
    #: A run sees some tens to hundreds of windows: p90 is the highest
    #: percentile with about ten samples beyond it.
    tail = 0.90

    def __init__(self, backend: str, seed: int, smoke: bool, out_dir: str):
        self.name = f"gateway-ingest-{backend}"
        self.backend = backend
        self.seed = seed
        self.out_dir = out_dir
        self.clients = 8 if smoke else CLIENTS
        self.local_rounds = 2 if smoke else LOCAL_ROUNDS
        self.rounds = self.local_rounds if backend == "local" or smoke else 64
        self.fingerprints = set()

    def describe(self) -> str:
        policy = (
            "; sqlite autocommit, rollback journal, default synchronous, as shipped"
            if self.backend == "local" else ""
        )
        return (
            f"{self.clients} clients x {self.rounds} files = "
            f"{self.clients * self.rounds} flushes per repetition into a fresh "
            f"{self.backend} account, {SHARDS} shards, one flush_pending() per "
            f"{self.clients}-flush window{policy}"
        )

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        self.fleet = make_fleet(
            clients=self.clients,
            files_per_client=self.rounds,
            extra_attributes=EXTRA_ATTRIBUTES,
            seed=self.seed,
        )
        rng = random.Random(self.seed)
        #: Arrival order of the clients within each window.
        self.orders = []
        for _ in range(self.rounds):
            order = list(range(self.clients))
            rng.shuffle(order)
            self.orders.append(order)
        self.round_bytes = [
            work_bytes(client.works[j] for client in self.fleet)
            for j in range(self.rounds)
        ]
        if self.backend == "local":
            # The sim side at equal input: the local store must end equal.
            self.fingerprints.add(self._run("sim", self.rounds, _NO_TRACE)[1])

    # -- one repetition --------------------------------------------------------

    def _run(self, backend: str, rounds: int, tracer) -> Tuple[Rep, str]:
        """Push the first ``rounds`` windows into a fresh ``backend``
        account; returns the repetition and the store's fingerprint."""
        holder = (
            tempfile.TemporaryDirectory(prefix="gateway-", dir=self.out_dir)
            if backend == "local" else nullcontext()
        )
        with holder as root:
            account = CloudAccount(
                seed=ACCOUNT_SEED, backend=backend, backend_root=root
            )
            try:
                gateway = IngestGateway(account, router=ShardRouter(shards=SHARDS))
                fleet = self.fleet
                latencies = []
                started = time.perf_counter()
                for j in range(rounds):
                    for c in self.orders[j]:
                        gateway.submit(fleet[c].client_id, fleet[c].works[j])
                    t0 = time.perf_counter()
                    with tracer.op("window"):
                        gateway.flush_pending()
                    latencies.append((time.perf_counter() - t0) * 1e3)
                wall = time.perf_counter() - started
                cloud = metered(account)

                counts = account_counts(account, gateway)
                if tracer.enabled:
                    counts.update(snapshot_counts(account))
                account.settle(120.0)
                fingerprint = store_fingerprint(account)
                store_bytes, survived = account.simpledb.index_memory_bytes(), True
                if backend == "local":
                    store_bytes, survived = close_and_reopen(account, root, counts)
            finally:
                account.close()
        if not survived:
            print(f"CHECK FAILED: {self.name} fingerprint changed on reopen")
        rep = Rep(
            ops=rounds * self.clients,
            wall_s=wall,
            latencies_ms=latencies,
            cloud=cloud,
            user_bytes=sum(self.round_bytes[:rounds]),
            store_bytes=store_bytes,
            failed=0 if survived else 1,
            counts=counts,
        )
        return rep, fingerprint

    def repetition(self, index: int, tracer, backend: Optional[str] = None) -> Rep:
        rep, fingerprint = self._run(backend or self.backend, self.rounds, tracer)
        self.fingerprints.add(fingerprint)
        return rep

    # -- output check ----------------------------------------------------------

    def check(self) -> Tuple[int, int, dict]:
        """Every repetition, and the other backend at equal input, must
        leave a store with one and the same fingerprint."""
        checks, failed = 1, 0
        if len(self.fingerprints) != 1:
            failed += 1
            print(f"CHECK FAILED: {self.name} fingerprints {self.fingerprints}")
        if self.backend == "sim":
            # The local side is too slow for the sim size: compare the
            # two backends on the first windows, the ``-local`` size.
            checks += 1
            twins = {
                self._run(backend, self.local_rounds, _NO_TRACE)[1]
                for backend in ("sim", "local")
            }
            if len(twins) != 1:
                failed += 1
                print(f"CHECK FAILED: sim and local fingerprints differ {twins}")
        return checks, failed, {}

    def close(self) -> None:
        pass
