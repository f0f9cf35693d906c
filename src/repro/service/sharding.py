"""Shard routing for provenance items.

The paper evaluates one client against one SimpleDB domain and notes the
per-domain limits that bound its sustained ingest (§5, Table 2): the
service's indexing pipeline is a *per-domain* resource, so a multi-tenant
deployment spreads items across N domains and writes to them
independently.  :class:`ShardRouter` implements the routing: a stable
hash of the object uuid picks the domain, so every version of an object
lands in the same shard (Q2's ``itemName() like 'uuid_%'`` lookup stays
local to one domain) and the mapping is identical across processes and
runs — no rendezvous state to persist.  Routing is a pure function of
the uuid, so any router of the same layout — after a restart, or beside
a second writer over the same store — routes every read the same way.

With one shard the router degenerates to the paper's configuration: the
single legacy domain name, byte-identical write request streams.
"""

from __future__ import annotations

import zlib
from typing import Tuple

from repro.core.protocol_base import PROVENANCE_DOMAIN, DomainRouter


class ShardRouter(DomainRouter):
    """Spreads provenance items over N SimpleDB domains by uuid hash.

    Item-name lookups go to the one shard owning the uuid; attribute-
    rooted lookups (Q3/Q4) cannot be routed and fan out to every shard."""

    def __init__(self, base_domain: str = PROVENANCE_DOMAIN, shards: int = 1):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        super().__init__(base_domain)
        self.base_domain = base_domain
        self.shards = shards
        if shards == 1:
            # Degenerate case keeps the paper's domain name so a 1-shard
            # deployment is indistinguishable from the unsharded system.
            self._shard_domains: Tuple[str, ...] = (base_domain,)
        else:
            self._shard_domains = tuple(
                f"{base_domain}-{index}" for index in range(shards)
            )

    @property
    def domains(self) -> Tuple[str, ...]:
        return self._shard_domains

    def shard_of(self, uuid: str) -> int:
        """Stable shard index of a uuid (CRC32, not Python's salted
        ``hash`` — the mapping must survive process restarts)."""
        return zlib.crc32(uuid.encode("utf-8")) % self.shards

    def domain_for(self, uuid: str) -> str:
        return self._shard_domains[self.shard_of(uuid)]
