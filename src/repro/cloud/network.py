"""Makespan scheduling of cloud requests over shared resources.

The protocols issue requests either sequentially (clock advances by each
request's duration) or in parallel batches (the paper parallelizes uploads
aggressively; §5 notes 150 connections for S3/SQS and 40 for SimpleDB).

Each request consumes up to three resources:

- a **connection** from the batch's pool (``k = min(requested, service
  cap)``): holds the request for its round-trip latency,
- the **client NIC**: payload/response bytes serialize through the
  client's uplink at the environment's ``nic_bw`` — ten parallel 100 MB
  uploads still move 1 GB through one NIC,
- the **service indexer** (SimpleDB only): batched attribute-value pairs
  serialize through the service's indexing pipeline at ``1/per_item_s``
  pairs per second.  This is what limits SimpleDB's *sustained* ingest
  (Table 2) while leaving isolated calls fast (Figure 4's small
  overheads), and why SimpleDB stops scaling with connections while S3
  and SQS keep going.

A batch's makespan is charged to the virtual clock unless it is
scheduled with ``advance_clock=False`` (billed and applied, the clock
left alone): the simulation kernel schedules every batch that way and
moves the clock itself, and untimed setup such as staged inputs uses it
too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cloud.clock import VirtualClock
from repro.cloud.profiles import EnvironmentProfile, ServiceProfile


@dataclass(slots=True)
class Request:
    """One cloud request, prepared but not yet executed.

    Attributes:
        profile: the (period-adjusted) service profile that prices the
            request.
        apply: callable invoked as ``apply(start, finish)`` once the
            scheduler has placed the request; it mutates service state and
            returns the request's result.  Writes become *committed* at
            ``finish`` (visibility is then governed by the consistency
            model).
        payload_bytes: bytes sent to the service.
        response_bytes: bytes returned by the service.
        items: batched unit count serialized through the service indexer
            (SimpleDB: attribute-value pairs in a batch put).
        read_only: reads (GET/HEAD/Select/Receive) pay the service's
            ``read_latency_s`` instead of the write commit latency.
        indexer_key: which indexing pipeline the request's items serialize
            through.  Defaults to the service name; SimpleDB keys it per
            *domain*, because the service's ingest ceiling is per-domain
            (the §5 domain-limit discussion) — writes to different domains
            index independently, which is what makes shard routing scale.
        label: free-form description, used in error messages.
    """

    profile: ServiceProfile
    apply: Callable[[float, float], Any]
    payload_bytes: int = 0
    response_bytes: int = 0
    items: int = 0
    read_only: bool = False
    indexer_key: Optional[str] = None
    label: str = ""

    def latency(self, env: EnvironmentProfile) -> float:
        """Round-trip latency of this request."""
        base = (
            self.profile.read_latency_s
            if self.read_only
            else self.profile.request_latency_s
        )
        return base + env.extra_latency_s

    def transfer_bytes(self) -> int:
        return self.payload_bytes + self.response_bytes


@dataclass(slots=True)
class BatchResult:
    """Outcome of a scheduled batch: results plus timing."""

    results: List[Any]
    makespan: float
    started_at: float
    finished_at: float
    connections_used: int = 0
    request_finish_times: List[float] = field(default_factory=list)


class ParallelScheduler:
    """Schedules request batches against the virtual clock.

    The scheduler owns the shared-resource state (NIC, per-service
    indexer pipelines), which persists across batches: a daemon that
    saturates the uplink delays the requests that follow it.
    """

    def __init__(self, clock: VirtualClock, environment: EnvironmentProfile):
        self._clock = clock
        self._env = environment
        #: Time at which the client NIC frees up.
        self._nic_free_at = 0.0
        #: Per-service time at which the indexing pipeline frees up.
        self._indexer_free_at: Dict[str, float] = {}
        #: Per-pipeline multiplier on ``per_item_s`` — how a degradation
        #: window slows one shard's domain without touching the others.
        self._pipeline_item_scale: Dict[str, float] = {}

    @property
    def environment(self) -> EnvironmentProfile:
        return self._env

    def set_environment(self, environment: EnvironmentProfile) -> None:
        """Swap the environment mid-run.  Requests placed after the swap
        pay the new profile's latency; in-flight resource occupancy
        (NIC, indexers) carries over.  This is how degradation windows
        (:class:`~repro.cloud.faults.DegradationWindow`) take effect and
        how they restore the baseline afterwards."""
        self._env = environment

    def pipeline_item_scale(self, key: str) -> float:
        """Current ``per_item_s`` multiplier for one indexing pipeline."""
        return self._pipeline_item_scale.get(key, 1.0)

    def set_pipeline_item_scale(self, key: str, scale: float) -> None:
        """Scale one indexing pipeline's per-item cost (``1.0`` restores
        the baseline).  Keyed like :attr:`Request.indexer_key`, e.g.
        ``"simpledb:domain-2"`` for a single shard's domain."""
        if scale <= 0:
            raise ValueError(f"pipeline item scale must be > 0 (got {scale})")
        if scale == 1.0:
            self._pipeline_item_scale.pop(key, None)
        else:
            self._pipeline_item_scale[key] = scale

    def reset_resources(self) -> None:
        """Forget accumulated NIC/indexer occupancy (used after untimed
        setup such as input staging, so the measured run starts clean)."""
        self._nic_free_at = self._clock.now
        self._indexer_free_at.clear()

    # -- placement ------------------------------------------------------------

    def _place(self, request: Request, start: float) -> float:
        """Compute the finish time of a request starting at ``start`` and
        update the shared-resource state."""
        done = start + request.latency(self._env)
        transfer = request.transfer_bytes()
        if transfer > 0:
            rate = min(request.profile.per_connection_bw, self._env.nic_bw)
            begin = max(done, self._nic_free_at)
            done = begin + transfer / rate if rate > 0 else begin
            self._nic_free_at = done
        if request.items > 0 and request.profile.per_item_s > 0:
            pipeline = request.indexer_key or request.profile.name
            per_item = (
                request.profile.per_item_s
                * self._pipeline_item_scale.get(pipeline, 1.0)
            )
            begin = max(done, self._indexer_free_at.get(pipeline, 0.0))
            done = begin + request.items * per_item
            self._indexer_free_at[pipeline] = done
        return done

    def execute_one(self, request: Request) -> Any:
        """Execute a single request sequentially, advancing the clock."""
        start = self._clock.now
        finish = self._place(request, start)
        result = request.apply(start, finish)
        self._clock.advance_to(finish)
        return result

    def execute_batch(
        self,
        requests: Sequence[Request],
        connections: int,
        advance_clock: bool = True,
    ) -> BatchResult:
        """Execute ``requests`` over at most ``connections`` connections.

        Requests are placed greedily in submission order onto the
        earliest-free connection; results are returned in submission
        order.  When ``advance_clock`` is false the batch is scheduled and
        applied (state mutations land with correct timestamps) but the
        caller's clock does not move — this models work done by an
        asynchronous daemon whose time the paper excludes from elapsed
        measurements.
        """
        if not requests:
            now = self._clock.now
            return BatchResult([], 0.0, now, now, 0)
        if connections < 1:
            raise ValueError("connections must be >= 1")

        caps = {r.profile.max_useful_connections for r in requests}
        cap = min(caps)
        k = max(1, min(connections, cap, len(requests)))

        start = self._clock.now
        # Connection pool as a min-heap of (free_at, connection_id).
        pool = [(start, i) for i in range(k)]
        heapq.heapify(pool)

        results: List[Any] = []
        finish_times: List[float] = []
        batch_end = start
        for request in requests:
            free_at, conn = heapq.heappop(pool)
            finish = self._place(request, free_at)
            results.append(request.apply(free_at, finish))
            finish_times.append(finish)
            heapq.heappush(pool, (finish, conn))
            if finish > batch_end:
                batch_end = finish

        if advance_clock:
            self._clock.advance_to(batch_end)
        return BatchResult(
            results=results,
            makespan=batch_end - start,
            started_at=start,
            finished_at=batch_end,
            connections_used=k,
            request_finish_times=finish_times,
        )

    def estimate_batch(self, requests: Sequence[Request], connections: int) -> float:
        """Makespan a batch *would* take, without executing anything or
        disturbing the shared-resource state."""
        if not requests:
            return 0.0
        caps = {r.profile.max_useful_connections for r in requests}
        k = max(1, min(connections, min(caps), len(requests)))
        pool = [0.0] * k
        heapq.heapify(pool)
        nic_free = 0.0
        indexer_free: Dict[str, float] = {}
        end = 0.0
        for request in requests:
            free_at = heapq.heappop(pool)
            done = free_at + request.latency(self._env)
            transfer = request.transfer_bytes()
            if transfer > 0:
                rate = min(request.profile.per_connection_bw, self._env.nic_bw)
                begin = max(done, nic_free)
                done = begin + transfer / rate if rate > 0 else begin
                nic_free = done
            if request.items > 0 and request.profile.per_item_s > 0:
                pipeline = request.indexer_key or request.profile.name
                per_item = (
                    request.profile.per_item_s
                    * self._pipeline_item_scale.get(pipeline, 1.0)
                )
                begin = max(done, indexer_free.get(pipeline, 0.0))
                done = begin + request.items * per_item
                indexer_free[pipeline] = done
            heapq.heappush(pool, done)
            end = max(end, done)
        return end
