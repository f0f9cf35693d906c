"""Protocol P2: cloud store with a cloud database (§4.3.2).

Storage scheme: each file is an S3 object; the provenance of each object
*version* is one SimpleDB item named ``uuid_version`` whose attributes are
the provenance records.  Values over SimpleDB's 1 KB limit are stored as
separate S3 objects referenced by pointer.  The data object's metadata
carries the uuid and current version, as in P1.

Flush, per the paper:

1. Spill any values larger than 1 KB to S3 and rewrite them as pointers.
2. Store the provenance via ``BatchPutAttributes`` (≤ 25 items per call).
3. PUT the data object with metadata naming the provenance and version.

Properties: efficient query (SimpleDB indexes every attribute) but still
no data-coupling — the SimpleDB writes and the S3 data write are separate,
non-atomic requests.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.events import Batch

from repro.core.protocol_base import (
    PROVENANCE_DOMAIN,
    DomainRouter,
    FlushWork,
    StorageProtocol,
    UploadMode,
    bundles_with_coupling,
    marshal_plan,
)
from repro.core.sdb_items import build_routed_requests


class ProtocolP2(StorageProtocol):
    """P2 — data in S3, provenance in SimpleDB."""

    name = "p2"
    supports_efficient_query = True

    def __init__(
        self,
        *args,
        domain: str = PROVENANCE_DOMAIN,
        router: Optional[DomainRouter] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.router = router if router is not None else DomainRouter(domain)
        #: Legacy single-domain name.  With a multi-shard router this is
        #: only the *first* shard — consumers that want every provenance
        #: item (detection readers, ad-hoc selects) must iterate
        #: ``router.domains`` instead.
        self.domain = self.router.domains[0]
        for shard in self.router.domains:
            self.account.simpledb.create_domain(shard)

    def flush_plan(self, work: FlushWork) -> Generator:
        """P2's flush as an effect plan.  The serial marshalling CPU is
        :func:`~repro.core.protocol_base.marshal_plan`'s two delays, per
        provenance request and then per attribute-value pair."""
        bundles = bundles_with_coupling(work)
        spill_requests, batch_requests, item_pairs = build_routed_requests(
            self.router, bundles, self.account, self.bucket
        )
        data_requests = self._data_requests(work)
        yield from marshal_plan(
            self.account, len(spill_requests) + len(batch_requests), item_pairs
        )

        if self.mode is UploadMode.PARALLEL:
            requests = spill_requests + batch_requests + data_requests
            if requests:
                yield Batch(requests, self.connections)
            self.account.faults.crash_point("p2.after_prov_put")
        else:
            if data_requests[1:]:
                yield Batch(data_requests[1:], self.connections)
            if spill_requests:
                yield Batch(spill_requests, self.connections)
            for request in batch_requests:
                yield Batch([request], connections=1)
            self.account.faults.crash_point("p2.after_prov_put")
            if data_requests:
                yield Batch(data_requests[:1], self.connections)

        self._mark_flushed(work)
        self.account.faults.crash_point("p2.after_data_put")
