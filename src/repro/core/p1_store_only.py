"""Protocol P1: standalone cloud store (§4.3.1).

Storage scheme: each file maps to a *primary* S3 object holding the data;
its provenance lives in a second, uuid-named S3 object holding the encoded
records (plus a record naming the primary object).  The primary object's
metadata records the uuid and the current version, linking data to
provenance without coupling their lifetimes — deleting the data leaves the
provenance object untouched (data-independent persistence).

Flush, per the paper:

1. Extract the cached provenance.  PUT it into the S3 provenance object —
   and if that object already exists, GET it, append, and re-PUT (S3 has
   no append).
2. PUT the data object with metadata naming the provenance object and the
   current version.

Unrecorded ancestors and their provenance go first (CAUSAL mode) or in the
same parallel batch (PARALLEL mode — the throughput configuration the
paper benchmarks, which sacrifices causal ordering for P1).

Properties: no data-coupling (two non-atomic writes); eventual causal
ordering in CAUSAL mode; *no* efficient query — finding provenance by
attribute requires scanning every provenance object in the bucket.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.cloud.blob import Blob
from repro.cloud.network import Request
from repro.errors import NoSuchKeyError
from repro.provenance.serialization import encode_records
from repro.sim.events import Batch, Delay

from repro.core.protocol_base import (
    FlushWork,
    StorageProtocol,
    UploadMode,
    bundles_with_coupling,
    provenance_object_key,
    tolerate_missing,
)


class ProtocolP1(StorageProtocol):
    """P1 — both provenance and data in the cloud object store."""

    name = "p1"
    supports_efficient_query = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: uuids whose provenance object exists (avoid a HEAD per flush;
        #: a real client caches this the same way).
        self._prov_object_written: Dict[str, bool] = {}
        #: client-side copy of each provenance object's current content,
        #: so the GET-append-PUT cycle is simulated faithfully: the GET is
        #: still issued (and billed, and timed) but content comes from the
        #: authoritative append below.
        self._prov_content: Dict[str, str] = {}

    def flush_plan(self, work: FlushWork) -> Generator:
        """P1's flush as an effect plan; the serial marshalling CPU is a
        delay before the first request."""
        prov_requests = self._provenance_requests(work)
        data_requests = self._data_requests(work)
        cost = self.prov_cpu_cost(len(prov_requests))
        if cost > 0:
            yield Delay(cost)

        if self.mode is UploadMode.PARALLEL:
            # Throughput configuration: everything in one batch.  The
            # paper notes this violates multi-object causal ordering.
            if prov_requests or data_requests:
                yield Batch(prov_requests + data_requests, self.connections)
            self.account.faults.crash_point("p1.after_prov_put")
        else:
            # Careful configuration: ancestors' provenance strictly before
            # the primary's data (ancestor data goes with provenance).
            if data_requests[1:]:
                yield Batch(data_requests[1:], self.connections)
            for request in prov_requests:
                yield Batch([request], connections=1)
            self.account.faults.crash_point("p1.after_prov_put")
            if data_requests:
                yield Batch(data_requests[:1], self.connections)
        self._mark_flushed(work)
        self.account.faults.crash_point("p1.after_data_put")

    # -- request construction -------------------------------------------------

    def _provenance_requests(self, work: FlushWork) -> List[Request]:
        """One append (GET + PUT, or just PUT the first time) per bundle."""
        requests: List[Request] = []
        for bundle in bundles_with_coupling(work):
            encoded = encode_records(bundle.records)
            key = provenance_object_key(bundle.uuid)
            if self._prov_object_written.get(bundle.uuid):
                # Appending requires reading the existing object back.
                # Under eventual consistency the read may 404 (our own
                # recent PUT not yet visible); the client falls back to
                # its cached copy — the request is still timed and billed.
                requests.append(
                    tolerate_missing(self.account.s3.get_request(self.bucket, key))
                )
                content = self._prov_content.get(bundle.uuid, "") + encoded
            else:
                content = encoded
            self._prov_content[bundle.uuid] = content
            self._prov_object_written[bundle.uuid] = True
            requests.append(
                self.account.s3.put_request(self.bucket, key, Blob.from_text(content))
            )
        return requests

    # -- provenance access (query layer) ----------------------------------------

    def fetch_provenance_text(self, uuid: str) -> str:
        """GET a provenance object's full content (used by queries)."""
        try:
            blob, _ = self.account.s3.get(self.bucket, provenance_object_key(uuid))
        except NoSuchKeyError:
            return ""
        return blob.text() if blob.data is not None else ""
