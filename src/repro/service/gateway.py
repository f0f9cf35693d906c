"""The multi-tenant ingest gateway.

The paper's deployment is one PA-S3fs client talking to its own bucket
and domain.  At fleet scale that wastes the two resources the simulator
meters: every client pays its own round-trips, and every client's
partial ``BatchPutAttributes`` (≤ 25 items) ships mostly-empty batches.
The gateway sits between many clients and the cloud:

- clients :meth:`submit` their :class:`FlushWork` units; nothing is sent
  yet (the gateway's batching window),
- :meth:`flush_pending` coalesces the window across clients — provenance
  bundles merge by uuid, route to their shard domain, and fill 25-item
  batches *across* clients — so the round-trip latency is paid once per
  window instead of once per client.

A window's timeline, the same under the phased driver and the kernel:

1. The data PUTs leave as the window opens, in one uncharged
   :class:`~repro.sim.events.Batch` on the connections the provenance
   batch does not need.  They carry no provenance, so there is nothing
   to marshal for them.
2. While they fly, the gateway marshals the provenance, charged as P2
   charges it (:func:`~repro.core.protocol_base.marshal_plan`: per spill
   or BatchPut request, then per attribute-value pair).
3. The spills and BatchPuts go in one charged batch.
4. If the data is still in flight, the gateway waits for it: the window
   ends at ``max(data finish, marshalling + provenance finish)``.

Storage scheme is P2's (§4.3.2): data objects in S3 with uuid/version
metadata, one SimpleDB item per object version, >1 KB values spilled to
S3.  Both query engines therefore work unchanged on a gateway-populated
store, and the shard-aware engine works when the gateway routes across
shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, List, Optional, Set, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.network import Request
from repro.obs.tracing import CLIENT_EMIT, GATEWAY_COALESCE
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, merge_bundles
from repro.query.engine import SimpleDBQueryEngine
from repro.sim.compat import run_plan_phased
from repro.sim.events import Batch, Delay

from repro.core.protocol_base import (
    DATA_BUCKET,
    DomainRouter,
    FlushWork,
    bundles_with_coupling,
    data_key,
    data_object_metadata,
    marshal_plan,
)
from repro.core.sdb_items import build_routed_requests
from repro.service.cache import CachedQueryEngine, LRUCache


@dataclass
class GatewayStats:
    """Cumulative accounting of what the gateway coalesced."""

    flushes: int = 0
    windows: int = 0
    item_pairs: int = 0
    sdb_batches: int = 0
    #: BatchPutAttributes calls the same flushes would have cost with
    #: every client batching alone (the per-client ⌈items/25⌉ sum).
    sdb_batches_unbatched: int = 0
    data_puts: int = 0
    spill_puts: int = 0
    clients: Set[str] = field(default_factory=set)

    @property
    def sdb_batches_saved(self) -> int:
        return self.sdb_batches_unbatched - self.sdb_batches

    def summary(self) -> str:
        return (
            f"{self.flushes} flushes from {len(self.clients)} clients in "
            f"{self.windows} windows: {self.sdb_batches} BatchPut calls "
            f"({self.sdb_batches_saved} saved), {self.data_puts} data PUTs"
        )


class IngestGateway:
    """Coalesces many clients' flushes into shared cloud batches."""

    def __init__(
        self,
        account: CloudAccount,
        router: Optional[DomainRouter] = None,
        bucket: str = DATA_BUCKET,
        connections: int = 150,
        cache: Optional[LRUCache] = None,
    ):
        self.account = account
        self.router = router if router is not None else DomainRouter()
        self.bucket = bucket
        self.connections = connections
        self.cache = cache if cache is not None else LRUCache()
        self.stats = GatewayStats()
        #: Flushes waiting for the next window; mutated only in place.
        self._pending: List[Tuple[str, FlushWork]] = []
        # Telemetry: stats struct and cache feed the registry as callback
        # gauges under this gateway's instance label — closures over the
        # state, not bound methods, which would make a cycle with ``self``.
        telemetry = account.telemetry
        self._tracer = telemetry.tracer
        label = f"gateway-{telemetry.instance_id('gateway')}"
        metrics = telemetry.metrics
        stats = self.stats
        metrics.gauge_fn("gateway.flushes", lambda: stats.flushes, gateway=label)
        metrics.gauge_fn("gateway.windows", lambda: stats.windows, gateway=label)
        metrics.gauge_fn(
            "gateway.item_pairs", lambda: stats.item_pairs, gateway=label
        )
        metrics.gauge_fn(
            "gateway.sdb_batches", lambda: stats.sdb_batches, gateway=label
        )
        metrics.gauge_fn(
            "gateway.sdb_batches_saved",
            lambda: stats.sdb_batches_saved,
            gateway=label,
        )
        metrics.gauge_fn("gateway.pending", self._pending.__len__, gateway=label)
        self.cache.bind_metrics(metrics, cache=label)
        account.s3.create_bucket(bucket)
        for domain in self.router.domains:
            account.simpledb.create_domain(domain)
        #: True while the kernel process is mid-window (the window has
        #: been claimed from ``_pending`` but has not ended).
        self._flushing = False
        #: Coalescing window of the kernel process, virtual seconds.
        #: :meth:`process` re-reads it every loop, so a supervisor can
        #: adapt it live (:meth:`set_window`).
        self.window_s = 0.25

    # -- ingest ---------------------------------------------------------------

    def submit(self, client_id: str, work: FlushWork) -> None:
        """Accept one client's flush into the current batching window."""
        self._pending.append((client_id, work))
        self.stats.flushes += 1
        self.stats.clients.add(client_id)
        if self._tracer.enabled:
            # Gateway-path lifecycle trace, keyed by the primary record's
            # uuid (there is no WAL transaction on this path); item names
            # alias onto it so SimpleDB visibility marks land.
            key = work.primary.uuid
            self._tracer.begin(key, client=client_id, path="gateway")
            self._tracer.mark(key, CLIENT_EMIT, self.account.now)
            for bundle in work.bundles:
                self._tracer.alias(bundle.uuid, key)
                for version in bundle.by_version():
                    self._tracer.alias(str(NodeRef(bundle.uuid, version)), key)

    def pending_count(self) -> int:
        return len(self._pending)

    def flush_pending(self) -> int:
        """Coalesce and issue the window (phased driver); returns the
        request count."""
        return run_plan_phased(self.account, self.flush_plan())

    def flush_plan(self) -> Generator:
        """One window flush as an effect plan — the single copy of the
        coalescing logic, driven phased by :meth:`flush_pending` and
        concurrently by :meth:`process`.

        The data PUTs go first, uncharged; the provenance is marshalled
        and put while they fly, and the plan ends when both are done.  A
        kill before the data batch resumes hands the window back as it
        was; a kill after it hands the flushes back without their data,
        so the retry re-puts provenance only and no data PUT is sent
        twice."""
        if not self._pending:
            return 0
        window = self._pending[:]
        self._pending.clear()
        self.stats.windows += 1

        data_shipped = shipped = False
        try:
            spill_requests, batch_requests, data_requests, item_pairs = (
                self._build_window(window)
            )
            prov_requests = spill_requests + batch_requests
            data = None
            if data_requests:
                data = yield Batch(
                    data_requests,
                    max(1, self.connections - len(prov_requests)),
                    charge=False,
                )
                data_shipped = True
                self.stats.data_puts += len(data_requests)
            yield from marshal_plan(self.account, len(prov_requests), item_pairs)
            if prov_requests:
                yield Batch(prov_requests, self.connections)
            shipped = True
        finally:
            if not shipped:
                # Killed mid-window: the gateway object is the durable
                # intake log, so hand the claimed flushes back for the
                # next incarnation.  If the kill landed after a batch
                # applied but before this generator resumed, that batch
                # is re-issued — harmless, because SimpleDB re-puts are
                # set-semantics idempotent and the S3 objects re-upload
                # byte-identical content.
                if data_shipped:
                    window = [
                        (client_id, replace(work, include_data=False))
                        for client_id, work in window
                    ]
                self._pending[:0] = window

        self.stats.item_pairs += item_pairs
        self.stats.sdb_batches += len(batch_requests)
        self.stats.spill_puts += len(spill_requests)
        self.cache.note_write()
        if data is not None and data.finished_at > self.account.now:
            yield Delay(data.finished_at - self.account.now)
        if self._tracer.enabled:
            for _client_id, work in window:
                self._tracer.mark_if_traced(
                    work.primary.uuid, GATEWAY_COALESCE, self.account.now
                )
                self._tracer.close(work.primary.uuid)
        return len(prov_requests) + len(data_requests)

    def process(self, window_s: float = 0.25) -> Generator:
        """The gateway as a kernel process: windows become *time-based*.
        Every ``window_s`` virtual seconds the gateway coalesces whatever
        the client processes submitted since the last flush — cross-client
        batching now depends on arrival times, not on who called
        ``flush_pending``.  Spawn with ``daemon=True``."""
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        while True:
            yield Delay(self.window_s)
            if self._pending:
                self._flushing = True
                try:
                    yield from self.flush_plan()
                finally:
                    # A crash mid-window (the kernel closes the generator)
                    # must not leave ``busy`` stuck True forever.
                    self._flushing = False

    def set_window(self, window_s: float) -> None:
        """Adapt the coalescing window live — the supervisor's lever for
        trading latency against batching efficiency."""
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s

    @property
    def busy(self) -> bool:
        """Whether undelivered work remains: submissions waiting for the
        next window, or a window claimed but not yet ended.  Kernel
        experiments drain by running until this clears."""
        return self._flushing or bool(self._pending)

    # -- query side -----------------------------------------------------------

    def query_engine(self) -> CachedQueryEngine:
        """A cached query engine over the gateway's store, routed by the
        gateway's router.  Shares the gateway's cache, so ingest
        invalidates reads."""
        engine = SimpleDBQueryEngine(
            self.account, router=self.router, bucket=self.bucket
        )
        return CachedQueryEngine(engine, cache=self.cache)

    # -- internals ------------------------------------------------------------

    def _build_window(
        self, window: List[Tuple[str, FlushWork]]
    ) -> Tuple[List[Request], List[Request], List[Request], int]:
        """Coalesce one window into its requests: provenance bundles merge
        by uuid, route to their shard domain, and fill 25-item batches
        across clients.  Returns (spills, batch puts, data puts, item
        pairs)."""
        bundles: List[ProvenanceBundle] = []
        data_requests: List[Request] = []
        for _client_id, work in window:
            enriched = bundles_with_coupling(work)
            bundles.extend(enriched)
            self.stats.sdb_batches_unbatched += self._unbatched_calls(enriched)
            if work.include_data:
                for intent in [work.primary] + list(work.ancestor_data):
                    data_requests.append(
                        self.account.s3.put_request(
                            self.bucket,
                            data_key(intent.path),
                            intent.blob,
                            data_object_metadata(intent),
                        )
                    )

        merged = list(merge_bundles(bundles).values())
        spill_requests, batch_requests, item_pairs = build_routed_requests(
            self.router, merged, self.account, self.bucket
        )
        return spill_requests, batch_requests, data_requests, item_pairs

    def _unbatched_calls(self, bundles: List[ProvenanceBundle]) -> int:
        """BatchPutAttributes calls one flush's (already enriched)
        bundles would cost a lone client: one ⌈items/25⌉ ceiling per
        shard domain it touches."""
        calls = 0
        for _shard, group in self.router.group_by_domain(bundles):
            versions = sum(len(bundle.by_version()) for bundle in group)
            calls += (versions + 24) // 25
        return calls
