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
  batches *across* clients; data and spill objects ride in the same
  parallel batch — and issues everything through one
  :class:`~repro.cloud.network.ParallelScheduler` batch, so the
  round-trip latency is paid once per window instead of once per client.

Storage scheme is P2's (§4.3.2): data objects in S3 with uuid/version
metadata, one SimpleDB item per object version, >1 KB values spilled to
S3.  Both query engines therefore work unchanged on a gateway-populated
store, and the shard-aware engine works when the gateway routes across
shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Set, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.network import Request
from repro.obs.tracing import CLIENT_EMIT, GATEWAY_COALESCE
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, merge_bundles
from repro.query.engine import query_engine_for
from repro.sim.compat import run_plan_phased
from repro.sim.events import Batch, Delay

from repro.core.protocol_base import (
    DATA_BUCKET,
    DomainRouter,
    FlushWork,
    bundles_with_coupling,
    data_key,
    data_object_metadata,
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
        #: been claimed from ``_pending`` but its batch has not shipped).
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
        return run_plan_phased(self.account, self.flush_plan(), advance_clock=True)

    def flush_plan(self) -> Generator:
        """One window flush as an effect plan — the single copy of the
        coalescing logic, driven phased by :meth:`flush_pending` and
        concurrently by :meth:`process`."""
        if not self._pending:
            return 0
        window = self._pending[:]
        self._pending.clear()
        self.stats.windows += 1

        shipped = False
        try:
            requests, item_pairs, batch_count, data_count, spill_count = (
                self._build_window(window)
            )
            cost = self._marshalling_cost(len(requests), item_pairs)
            if cost > 0:
                yield Delay(cost)
            result = yield Batch(requests, self.connections)
            shipped = True
        finally:
            if not shipped:
                # Killed mid-window: the gateway object is the durable
                # intake log, so hand the claimed flushes back for the
                # next incarnation.  If the kill landed *after* the batch
                # applied but before this generator resumed, the window
                # is re-issued — harmless, because SimpleDB re-puts are
                # set-semantics idempotent and the S3 objects re-upload
                # byte-identical content.
                self._pending[:0] = window

        if self._tracer.enabled:
            coalesced_at = (
                result.finished_at if result is not None else self.account.now
            )
            for _client_id, work in window:
                self._tracer.mark_if_traced(
                    work.primary.uuid, GATEWAY_COALESCE, coalesced_at
                )
        self.stats.item_pairs += item_pairs
        self.stats.sdb_batches += batch_count
        self.stats.data_puts += data_count
        self.stats.spill_puts += spill_count
        self.cache.note_write()
        return len(requests)

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
        next window, or a window claimed but not yet shipped.  Kernel
        experiments drain by running until this clears."""
        return self._flushing or bool(self._pending)

    # -- query side -----------------------------------------------------------

    def query_engine(self, parallel_connections: int = 8) -> CachedQueryEngine:
        """A cached, shard-aware query engine over the gateway's store.
        Shares the gateway's cache, so ingest invalidates reads."""
        engine = query_engine_for(
            "p2",
            self.account,
            router=self.router,
            bucket=self.bucket,
            parallel_connections=parallel_connections,
        )
        return CachedQueryEngine(engine, cache=self.cache)

    # -- internals ------------------------------------------------------------

    def _build_window(
        self, window: List[Tuple[str, FlushWork]]
    ) -> Tuple[List[Request], int, int, int, int]:
        """Coalesce one window into its requests: provenance bundles merge
        by uuid, route to their shard domain, and fill 25-item batches
        across clients; data and spill objects ride in the same batch.
        Returns (requests, item pairs, batch puts, data puts, spills)."""
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
        requests = spill_requests + batch_requests + data_requests
        return (
            requests,
            item_pairs,
            len(batch_requests),
            len(data_requests),
            len(spill_requests),
        )

    def _unbatched_calls(self, bundles: List[ProvenanceBundle]) -> int:
        """BatchPutAttributes calls one flush's (already enriched)
        bundles would cost a lone client: one ⌈items/25⌉ ceiling per
        shard domain it touches."""
        calls = 0
        for _shard, group in self.router.group_by_domain(bundles):
            versions = sum(len(bundle.by_version()) for bundle in group)
            calls += (versions + 24) // 25
        return calls

    def _marshalling_cost(self, request_count: int, item_pairs: int) -> float:
        """Serial gateway-side CPU seconds for preparing the window's
        requests — same accounting the client protocols charge."""
        env = self.account.profile.environment
        return (
            request_count * env.prov_cpu_per_request_s
            + item_pairs * env.prov_cpu_per_item_s
        ) * env.cpu_factor
