"""Common protocol machinery.

All three protocols share:

- the *flush work unit*: the primary object being closed, the pending
  provenance bundles of its ancestor closure (ancestors first), and any
  ancestor file data that has not reached the cloud yet (multi-object
  causal ordering, §3),
- data-object naming and the metadata link (uuid + version) between a
  data object and its provenance (§4.3.1),
- bookkeeping of which object versions have been stored,
- the upload mode: ``CAUSAL`` uploads ancestors strictly before
  descendants; ``PARALLEL`` batches everything for throughput, which —
  as the paper notes in §5 — violates multi-object causal ordering for
  P1 and P2 (P3 keeps it, because the whole transaction commits or
  nothing does).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.network import Request
from repro.errors import NoSuchKeyError
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import DeleteIntent, FlushIntent
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.sim.compat import run_plan_phased
from repro.sim.events import Delay

#: Default bucket for data, temporaries, and provenance spill objects.
DATA_BUCKET = "pass-data"

#: SimpleDB domain for provenance items (P2, P3).
PROVENANCE_DOMAIN = "pass-prov"


class DomainRouter:
    """Maps an object uuid to the SimpleDB domain holding its provenance.

    The base router is the paper's configuration: every item lands in one
    domain (``PROVENANCE_DOMAIN``).  The multi-tenant service tier swaps
    in :class:`repro.service.sharding.ShardRouter`, which spreads items
    over N domains by stable hash — SimpleDB's ingest ceiling is
    per-domain (§5's domain-limit discussion), so routing is the scaling
    unit.  Protocols, the commit daemon, and the query engines all accept
    a router so the storage scheme stays consistent end to end: writes
    and item-name reads ask :meth:`domain_for` where an item lives, and
    attribute-rooted reads visit every one of :attr:`domains`.  Routing
    is a pure function of the uuid: a router holds no state about what
    was written, so every router of one layout answers alike.
    """

    def __init__(self, domain: str = PROVENANCE_DOMAIN):
        self._domain = domain

    @property
    def domains(self) -> Tuple[str, ...]:
        """Every domain this router can produce, in stable order."""
        return (self._domain,)

    def domain_for(self, uuid: str) -> str:
        """Domain holding the provenance items of ``uuid``."""
        return self._domain

    def domains_for_names(
        self, names: Sequence[str]
    ) -> List[Tuple[str, List[str]]]:
        """``uuid_version`` item names grouped by the domain owning their
        uuid, in first-touch order; no group is empty."""
        grouped: Dict[str, List[str]] = {}
        for name in names:
            uuid = name.rpartition("_")[0] or name
            grouped.setdefault(self.domain_for(uuid), []).append(name)
        return list(grouped.items())

    def group_by_domain(
        self, bundles: List[ProvenanceBundle]
    ) -> List[Tuple[str, List[ProvenanceBundle]]]:
        """Split bundles by target domain, preserving arrival order both
        across domains (first touch) and within each domain."""
        grouped: Dict[str, List[ProvenanceBundle]] = {}
        for bundle in bundles:
            grouped.setdefault(self.domain_for(bundle.uuid), []).append(bundle)
        return list(grouped.items())

    def note_indexed_items(
        self, domain: str, items: List[Tuple[str, List[Tuple[str, str]]]]
    ) -> None:
        """Write-path hook: the built SimpleDB items about to be put to
        ``domain``.  ``build_routed_requests`` calls it once per shard
        group on every routed write (gateway, P2 flush, commit daemon).
        Routing needs nothing from it, so it does nothing; it stays as
        the one place every tier's items pass, where the ``perf/``
        tracer counts items and attribute pairs per shard."""


class UploadMode(enum.Enum):
    """How a flush's requests are issued."""

    CAUSAL = "causal"
    PARALLEL = "parallel"


@dataclass(slots=True)
class FlushWork:
    """Everything one close/flush must persist."""

    primary: FlushIntent
    #: Pending provenance, ancestors before descendants.
    bundles: List[ProvenanceBundle] = field(default_factory=list)
    #: Ancestor file versions whose data is not yet in the cloud.
    ancestor_data: List[FlushIntent] = field(default_factory=list)
    #: When false, only provenance is uploaded (the microbenchmark tool
    #: replays every flush's provenance but uploads each data object once,
    #: at its final version — §5.1's "we only upload the final results").
    include_data: bool = True


def data_key(path: str) -> str:
    """S3 key for a file path (one object per file, §4.3.1)."""
    return "files/" + path.lstrip("/")


def provenance_object_key(uuid: str) -> str:
    """S3 key of a P1 provenance object (uuid-named, never deleted)."""
    return f"prov/{uuid}"


def temp_key(txn_id: str, ref: NodeRef) -> str:
    """S3 key of a P3 temporary data object."""
    return f"tmp/{txn_id}/{ref}"


def coupling_records(intent: FlushIntent) -> List[ProvenanceRecord]:
    """Records binding provenance to the data it describes: the data
    object's name and a content hash (the detection hooks of §3)."""
    return [
        ProvenanceRecord(intent.ref, "object", data_key(intent.path)),
        ProvenanceRecord(intent.ref, "sha1", intent.blob.digest),
    ]


def data_object_metadata(intent: FlushIntent) -> Dict[str, str]:
    """Metadata stored on a data object, linking it to its provenance
    (§4.3.1: "we record a version number and the uuid")."""
    return {
        "prov-uuid": intent.uuid,
        "version": str(intent.ref.version),
        "digest": intent.blob.digest,
    }


def tolerate_missing(request: Request) -> Request:
    """Make ``request`` resolve to ``None`` instead of raising
    :class:`NoSuchKeyError`; the request is still timed and billed (a 404
    costs a round trip)."""
    original = request.apply

    def apply(start: float, finish: float):
        try:
            return original(start, finish)
        except NoSuchKeyError:
            return None

    request.apply = apply
    return request


def prov_cpu_cost(account: CloudAccount, request_count: int) -> float:
    """Serial client-side CPU seconds for preparing ``request_count``
    provenance requests (PASS record extraction, DPAPI marshalling,
    serialization).  Data PUTs carry no provenance and cost nothing
    here."""
    if request_count <= 0:
        return 0.0
    env = account.profile.environment
    return request_count * env.prov_cpu_per_request_s * env.cpu_factor


def prov_items_cost(account: CloudAccount, item_count: int) -> float:
    """Serial client-side CPU seconds for marshalling ``item_count``
    attribute-value pairs into SimpleDB requests."""
    if item_count <= 0:
        return 0.0
    env = account.profile.environment
    return item_count * env.prov_cpu_per_item_s * env.cpu_factor


def marshal_plan(
    account: CloudAccount, request_count: int, item_pairs: int
) -> Generator:
    """The serial CPU of marshalling ``request_count`` SimpleDB-scheme
    provenance requests (spills and BatchPuts) holding ``item_pairs``
    attribute-value pairs, as two delays: per request, then per pair.
    The clock adds them one at a time, and the recorded Figure 3
    numbers depend on that rounding."""
    for cost in (
        prov_cpu_cost(account, request_count),
        prov_items_cost(account, item_pairs),
    ):
        if cost > 0:
            yield Delay(cost)


def bundles_with_coupling(work: FlushWork) -> List[ProvenanceBundle]:
    """Append the coupling records to the primary object's bundle —
    shared by every protocol's flush and the ingest gateway."""
    out: List[ProvenanceBundle] = []
    for bundle in work.bundles:
        if bundle.uuid == work.primary.uuid:
            enriched = ProvenanceBundle(uuid=bundle.uuid)
            for record in bundle.records:
                enriched.add(record)
            for record in coupling_records(work.primary):
                enriched.add(record)
            out.append(enriched)
        else:
            out.append(bundle)
    return out


class StorageProtocol(ABC):
    """Interface all three protocols implement.

    Subclasses implement :meth:`flush_plan`, the protocol's one flush as
    an effect plan; :meth:`flush` drives it on the shared clock, and
    kernel processes ``yield from`` it.  Reading and deleting data follow
    identical S3 paths in all protocols and live here.
    """

    #: Short protocol name ("p1", "p2", "p3"); set by subclasses.
    name: str = "base"

    #: Whether provenance can be queried by attribute without a full scan
    #: (the efficient-query property, Table 1).
    supports_efficient_query: bool = False

    def __init__(
        self,
        account: CloudAccount,
        mode: UploadMode = UploadMode.PARALLEL,
        connections: int = 32,
        bucket: str = DATA_BUCKET,
    ):
        self.account = account
        self.mode = mode
        self.connections = connections
        self.bucket = bucket
        account.s3.create_bucket(bucket)
        #: object uuid -> set of versions whose provenance was persisted.
        self._stored_provenance: Dict[str, Set[int]] = {}
        #: object uuid -> latest data version persisted.
        self._stored_data: Dict[str, int] = {}

    # -- interface ----------------------------------------------------------

    @abstractmethod
    def flush_plan(self, work: FlushWork) -> Generator:
        """Persist the primary object's data and all pending provenance,
        as an effect plan: serial client CPU is a
        :class:`~repro.sim.events.Delay`, cloud traffic a
        :class:`~repro.sim.events.Batch`."""

    def flush(self, work: FlushWork) -> None:
        """Run :meth:`flush_plan` to completion on the shared clock."""
        run_plan_phased(self.account, self.flush_plan(work))

    def finalize(self) -> None:
        """Drain any asynchronous work (P3's commit daemon); default no-op."""

    def delete(self, intent: DeleteIntent) -> None:
        """Delete a file's data object.  Provenance is *not* touched —
        data-independent persistence (§3)."""
        self.account.s3.delete(self.bucket, data_key(intent.path))
        self._stored_data.pop(intent.uuid, None)

    def read_data(self, path: str) -> Tuple[Blob, Dict[str, str]]:
        """GET a data object (used by PA-S3fs on cache miss)."""
        return self.account.s3.get(self.bucket, data_key(path))

    # -- bookkeeping ----------------------------------------------------------

    def provenance_stored(self, ref: NodeRef) -> bool:
        return ref.version in self._stored_provenance.get(ref.uuid, set())

    def data_stored_version(self, uuid: str) -> Optional[int]:
        return self._stored_data.get(uuid)

    def _mark_provenance_stored(self, bundles: List[ProvenanceBundle]) -> None:
        for bundle in bundles:
            versions = self._stored_provenance.setdefault(bundle.uuid, set())
            versions.update(bundle.versions())

    def _mark_data_stored(self, intent: FlushIntent) -> None:
        self._stored_data[intent.uuid] = intent.ref.version

    def _mark_flushed(self, work: FlushWork) -> None:
        """Record a completed flush: its provenance, and its data when the
        flush carried any."""
        self._mark_provenance_stored(work.bundles)
        if work.include_data:
            self._mark_data_stored(work.primary)
            for intent in work.ancestor_data:
                self._mark_data_stored(intent)

    # -- request construction -------------------------------------------------

    def _data_requests(self, work: FlushWork) -> List[Request]:
        """Primary data PUT first, then any unrecorded ancestor data; none
        when the flush carries no data."""
        if not work.include_data:
            return []
        return [
            self.account.s3.put_request(
                self.bucket,
                data_key(intent.path),
                intent.blob,
                data_object_metadata(intent),
            )
            for intent in [work.primary, *work.ancestor_data]
        ]
