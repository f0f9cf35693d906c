"""The multi-tenant provenance service tier.

The paper evaluates one PA-S3fs client against one bucket and one
SimpleDB domain; this package is the scaling unit the ROADMAP's
production north star needs — a service that sits between many clients
and the simulated cloud:

- :mod:`repro.service.sharding` — :class:`ShardRouter`: stable-hash
  routing of provenance items across N SimpleDB domains (the per-domain
  ingest ceiling of §5 is the resource being multiplied); routing is a
  pure function of the uuid, so a restart or a second writer never hides
  an item from a read,
- :mod:`repro.service.gateway` — :class:`IngestGateway`: accepts
  :class:`~repro.core.protocol_base.FlushWork` from many concurrent
  clients and coalesces their ``BatchPutAttributes`` and S3 uploads
  across clients, amortizing round-trips on the virtual clock,
- :mod:`repro.service.cache` — :class:`LRUCache` /
  :class:`CachedQueryEngine`: a generation-invalidated LRU read cache
  with hit/miss counters fronting both query engines,
- :mod:`repro.service.supervisor` — :class:`Supervisor`: the
  SLO-driven autoscaling control plane, sizing the commit-daemon pool
  from observed WAL depth and commit lag and adapting the gateway's
  coalescing window,
- :mod:`repro.service.http_frontend` — :class:`ProvenanceFrontend`: a
  stdlib-``http.server`` JSON front end mapping HTTP requests 1:1 onto
  the gateway's ingest and the cached query engines.

The client-fleet simulator that drives this tier lives in
:mod:`repro.workloads.fleet`; the scaling benchmark in
:mod:`repro.bench.experiments` (``multitenant_scaling``).
"""

from repro.service.cache import CachedQueryEngine, CacheStats, LRUCache
from repro.service.gateway import GatewayStats, IngestGateway
from repro.service.http_frontend import ProvenanceFrontend
from repro.service.sharding import ShardRouter
from repro.service.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "CacheStats",
    "CachedQueryEngine",
    "GatewayStats",
    "IngestGateway",
    "LRUCache",
    "ProvenanceFrontend",
    "ShardRouter",
    "Supervisor",
    "SupervisorConfig",
]
