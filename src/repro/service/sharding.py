"""Shard routing for provenance items.

The paper evaluates one client against one SimpleDB domain and notes the
per-domain limits that bound its sustained ingest (§5, Table 2): the
service's indexing pipeline is a *per-domain* resource, so a multi-tenant
deployment spreads items across N domains and writes to them
independently.  :class:`ShardRouter` implements the routing: a stable
hash of the object uuid picks the domain, so every version of an object
lands in the same shard (Q2's ``itemName() like 'uuid_%'`` lookup stays
local to one domain) and the mapping is identical across processes and
runs — no rendezvous state to persist.

With one shard the router degenerates to the paper's configuration: the
single legacy domain name, byte-identical write request streams.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

from repro.core.protocol_base import PROVENANCE_DOMAIN, DomainRouter
from repro.service.bloom import ShardBloomIndex


class ShardRouter(DomainRouter):
    """Spreads provenance items over N SimpleDB domains by uuid hash.

    Beside the uuid→domain mapping the router maintains a per-shard
    :class:`~repro.service.bloom.ShardBloomIndex` over every item name
    and attribute-value pair written through it (:meth:`note_indexed_items`,
    called by ``build_routed_requests``), and prunes the query fan-out
    with it: :meth:`domains_for_values` skips shards that provably cannot
    match an attribute-rooted lookup.  A shard prunes only once this
    router has written to it, so a router over a store it did not fill
    (a reopened root, a second gateway) fans out to every shard it never
    wrote.  Pruning is still unsound for a shard that this router *and*
    another writer both filled: the filter only knows this router's
    writes."""

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
        self.bloom = ShardBloomIndex()

    def note_indexed_items(
        self, domain: str, items: List[Tuple[str, List[Tuple[str, str]]]]
    ) -> None:
        self.bloom.note_items(domain, items)

    @property
    def domains(self) -> Tuple[str, ...]:
        return self._shard_domains

    def shard_of(self, uuid: str) -> int:
        """Stable shard index of a uuid (CRC32, not Python's salted
        ``hash`` — the mapping must survive process restarts)."""
        return zlib.crc32(uuid.encode("utf-8")) % self.shards

    def domain_for(self, uuid: str) -> str:
        return self._shard_domains[self.shard_of(uuid)]

    def domains_for_names(
        self, names: Sequence[str]
    ) -> List[Tuple[str, List[str]]]:
        """Route each ``uuid_version`` item name to its owning shard by
        the uuid hash, so a chunk of names never visits a shard that
        cannot hold them.  A group comes back empty when the owning
        shard's Bloom filter rules out every name in it (a version-range
        probe past an object's last version costs nothing)."""
        grouped: Dict[str, List[str]] = {}
        for name in names:
            uuid = name.rpartition("_")[0] or name
            grouped.setdefault(self.domain_for(uuid), []).append(name)
        return [
            (domain, group if self.bloom.might_contain_any_name(domain, group) else [])
            for domain, group in grouped.items()
        ]

    def domains_for_values(
        self, attribute: str, values: Sequence[str]
    ) -> Sequence[str]:
        """Every shard whose Bloom filter admits at least one of the
        values — the pruning that shrinks Q3/Q4's chunk x domain fan-out."""
        return [
            domain
            for domain in self._shard_domains
            if self.bloom.might_contain_any_value(domain, attribute, values)
        ]
