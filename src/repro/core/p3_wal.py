"""Protocol P3: cloud store + cloud database + messaging service (§4.3.3).

P3 splits a flush into two phases:

**Log phase** (client, synchronous — this is what workload elapsed time
includes):

1. Store the data as a *temporary* S3 object (``tmp/<txn>/<ref>``).
2. Allocate a transaction id; encode the provenance of the object and all
   its not-yet-written ancestors; chunk it into ≤ 8 KB WAL messages (the
   first carrying the packet count and the temp-object pointer) and send
   them to the client's SQS queue.

**Commit phase** (the commit daemon, asynchronous — excluded from elapsed
times, included in cost): see :mod:`repro.core.commit_daemon`.

Because an object, its provenance, *and its ancestors* ride in one
transaction that either fully commits or is ignored, P3 provides eventual
provenance data-coupling and keeps eventual multi-object causal ordering
even though packets are sent in parallel — the advantage the paper
highlights over P1/P2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.cloud.network import Request
from repro.obs.tracing import CLIENT_EMIT, WAL_LOGGED
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import FlushIntent
from repro.sim.compat import run_plan_phased
from repro.sim.events import Batch, Delay

from repro.core.commit_daemon import CommitDaemon
from repro.core.cleaner_daemon import CleanerDaemon
from repro.core.protocol_base import (
    PROVENANCE_DOMAIN,
    DomainRouter,
    FlushWork,
    StorageProtocol,
    UploadMode,
    bundles_with_coupling,
    data_key,
    prov_cpu_cost,
    temp_key,
)
from repro.core.wal_messages import DataManifestEntry, build_messages


@dataclass
class _PreparedFlush:
    """The requests one flush will issue, before any is executed."""

    txn_id: str
    entries: List[DataManifestEntry] = field(default_factory=list)
    temp_puts: List[Request] = field(default_factory=list)
    send_requests: List[Request] = field(default_factory=list)


class ProtocolP3(StorageProtocol):
    """P3 — S3 + SimpleDB + an SQS write-ahead log."""

    name = "p3"
    supports_efficient_query = True

    def __init__(
        self,
        *args,
        domain: str = PROVENANCE_DOMAIN,
        client_id: str = "client-0",
        router: Optional[DomainRouter] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.client_id = client_id
        self.router = router if router is not None else DomainRouter(domain)
        #: Legacy single-domain name (first shard under a multi-shard
        #: router; iterate ``router.domains`` to see every item).
        self.domain = self.router.domains[0]
        for shard in self.router.domains:
            self.account.simpledb.create_domain(shard)
        self.queue_url = self.account.sqs.create_queue(f"wal-{client_id}")
        self._txn_ids = itertools.count(1)
        self.commit_daemon = CommitDaemon(
            account=self.account,
            queue_url=self.queue_url,
            bucket=self.bucket,
            domain=self.domain,
            router=self.router,
        )
        self.cleaner_daemon = CleanerDaemon(account=self.account, bucket=self.bucket)

    def _prepare_flush(self, work: FlushWork) -> _PreparedFlush:
        """Allocate a transaction id and build every request the flush
        will issue."""
        txn_id = f"txn-{next(self._txn_ids):08d}"

        # Data manifest: the primary object plus unrecorded ancestor data,
        # all bundled into the same transaction (multi-object causal
        # ordering by atomicity; §4.3.3).
        intents: List[FlushIntent] = (
            [work.primary] + list(work.ancestor_data) if work.include_data else []
        )
        entries: List[DataManifestEntry] = []
        temp_puts: List[Request] = []
        for intent in intents:
            tmp = temp_key(txn_id, intent.ref)
            entries.append(
                DataManifestEntry(
                    final_key=data_key(intent.path),
                    uuid=intent.uuid,
                    version=intent.ref.version,
                    tmp_key=tmp,
                    size=intent.blob.size,
                    digest=intent.blob.digest,
                )
            )
            temp_puts.append(
                self.account.s3.put_request(
                    self.bucket,
                    tmp,
                    intent.blob,
                    {"txn": txn_id, "created": f"{self.account.now:.3f}"},
                )
            )

        records = [
            record
            for bundle in bundles_with_coupling(work)
            for record in bundle.records
        ]
        messages = build_messages(txn_id, entries, records)
        send_requests = [
            self.account.sqs.send_request(self.queue_url, body) for body in messages
        ]

        # Open the record-lifecycle trace for this transaction.  Item
        # names (``uuid_version``) and record uuids alias onto it, so the
        # commit daemon, SimpleDB visibility, and readers can land their
        # marks knowing only what they already know.
        tracer = self.account.telemetry.tracer
        if tracer.enabled:
            tracer.begin(
                txn_id,
                protocol=self.name,
                client=self.client_id,
                packets=len(send_requests),
            )
            tracer.mark(txn_id, CLIENT_EMIT, self.account.now)
            for bundle in work.bundles:
                tracer.alias(bundle.uuid, txn_id)
                for version in bundle.by_version():
                    tracer.alias(str(NodeRef(bundle.uuid, version)), txn_id)

        return _PreparedFlush(
            txn_id=txn_id,
            entries=entries,
            temp_puts=temp_puts,
            send_requests=send_requests,
        )

    def flush_plan(self, work: FlushWork) -> Generator:
        """The log phase as an effect plan; the serial marshalling CPU is
        a delay before the first request, and in causal mode each WAL
        packet is its own activation so crashes (timed or crash-point)
        can land mid-log."""
        prepared = self._prepare_flush(work)
        tracer = self.account.telemetry.tracer
        cost = prov_cpu_cost(self.account, len(prepared.send_requests))
        if cost > 0:
            yield Delay(cost)

        if self.mode is UploadMode.PARALLEL:
            # Packets can go in parallel: order does not matter once
            # everything is in the WAL (§4.3.3).
            result = yield Batch(
                prepared.temp_puts + prepared.send_requests, self.connections
            )
            if tracer.enabled and result is not None and prepared.send_requests:
                # Log completion = the latest WAL packet's finish — the
                # same instant SQS stamps as sent_at, so this mark and
                # the daemon's ``logged_at`` agree exactly.  A driver that
                # only collects the requests sends back no result.
                tracer.mark(
                    prepared.txn_id,
                    WAL_LOGGED,
                    max(result.request_finish_times[len(prepared.temp_puts):]),
                )
        else:
            yield Batch(prepared.temp_puts, self.connections)
            last = None
            for index, request in enumerate(prepared.send_requests):
                if index > 0:
                    self.account.faults.crash_point("p3.mid_log")
                last = yield Batch([request], connections=1)
            if tracer.enabled and last is not None:
                tracer.mark(prepared.txn_id, WAL_LOGGED, last.finished_at)
        self.account.faults.crash_point("p3.after_log")

        # Once logged, the transaction is guaranteed to commit eventually.
        self._mark_flushed(work)

    def finalize(self) -> None:
        """Drain the WAL: run the commit daemon's loop until a round
        receives nothing while nothing is held.  The daemon is
        asynchronous in the paper: its time passes after the client's
        elapsed time was taken."""
        run_plan_phased(self.account, self.commit_daemon.until_idle())

    def run_cleaner(self) -> int:
        """Run one cleaning pass; returns temp objects removed."""
        return run_plan_phased(self.account, self.cleaner_daemon.clean_plan())
