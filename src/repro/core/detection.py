"""Read-side detection of coupling and causal-ordering violations.

Systems without data-coupling can still *detect* decoupling on access
(§3): the provenance carries a content hash and the data object's
metadata carries its version, so a reader can tell when the pieces do not
match and refresh until they do.  This module implements that detection
for both provenance backends, plus the dangling-ancestor walk that
checks multi-object causal ordering (§4.3.1).

The readers see the omniscient final state (``peek_*``): they serve the
property checkers in :mod:`repro.core.properties` and the tests, and
issue no timed or billed request.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.cloud.account import CloudAccount
from repro.provenance.graph import NodeRef
from repro.provenance.serialization import decode_records
from repro.query.ancestry import XREF_ATTRIBUTES

from repro.core import sdb_items
from repro.core.protocol_base import data_key, provenance_object_key


class CouplingStatus(enum.Enum):
    """Outcome of a coupling check on one object."""

    COUPLED = "coupled"
    STALE_PROVENANCE = "stale-provenance"  # data is newer than provenance
    STALE_DATA = "stale-data"  # provenance is newer than data
    HASH_MISMATCH = "hash-mismatch"
    MISSING_PROVENANCE = "missing-provenance"
    MISSING_DATA = "missing-data"


# --------------------------------------------------------------------------
# Provenance readers
# --------------------------------------------------------------------------

class ProvenanceReader(ABC):
    """Uniform access to stored provenance, whichever backend holds it."""

    @abstractmethod
    def peek_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        """Omniscient final attributes (property checkers only)."""

    @abstractmethod
    def peek_refs(self) -> List[NodeRef]:
        """All stored node-versions (property checkers only)."""

    def peek_versions(self, uuid: str) -> List[int]:
        return sorted(r.version for r in self.peek_refs() if r.uuid == uuid)

    @staticmethod
    def xrefs_of(attributes: Dict[str, List[str]]) -> List[NodeRef]:
        """Node references contained in an attribute map."""
        refs: List[NodeRef] = []
        for attribute, values in attributes.items():
            if attribute not in XREF_ATTRIBUTES:
                continue
            for value in values:
                try:
                    refs.append(NodeRef.parse(value))
                except ValueError:
                    continue
        return refs


class S3ProvenanceReader(ProvenanceReader):
    """P1's backend: uuid-named S3 objects of encoded records."""

    def __init__(self, account: CloudAccount, bucket: str):
        self.account = account
        self.bucket = bucket

    def peek_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        record = self.account.s3.peek_latest(
            self.bucket, provenance_object_key(ref.uuid)
        )
        if record is None or record.blob.data is None:
            return {}
        attributes: Dict[str, List[str]] = {}
        for rec in decode_records(record.blob.text()):
            if rec.subject == ref:
                attributes.setdefault(rec.attribute, []).append(rec.value_text())
        return attributes

    def peek_refs(self) -> List[NodeRef]:
        refs: Set[NodeRef] = set()
        for _, record in self.account.s3.peek_objects(self.bucket, "prov/"):
            if record.blob.data is None:
                continue
            for rec in decode_records(record.blob.text()):
                refs.add(rec.subject)
        return sorted(refs)


class SimpleDBProvenanceReader(ProvenanceReader):
    """P2/P3's backend: SimpleDB items named ``uuid_version``."""

    def __init__(self, account: CloudAccount, domain: str, bucket: str):
        self.account = account
        self.domain = domain
        self.bucket = bucket

    def _peek_text(self, key: str) -> Optional[str]:
        record = self.account.s3.peek_latest(self.bucket, key)
        if record is None or record.blob.data is None:
            return None
        return record.blob.text()

    def peek_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        attributes = self.account.simpledb.peek_item(self.domain, str(ref))
        texts = {
            key: self._peek_text(key) for key in sdb_items.spill_keys(attributes)
        }
        return sdb_items.resolve_attributes(attributes, texts)

    def peek_refs(self) -> List[NodeRef]:
        refs = []
        for name in self.account.simpledb.peek_item_names(self.domain):
            try:
                refs.append(NodeRef.parse(name))
            except ValueError:
                continue
        return sorted(refs)


# --------------------------------------------------------------------------
# Coupling detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingCheck:
    """Result of checking one object's data against its provenance."""

    path: str
    status: CouplingStatus
    data_version: Optional[int] = None
    provenance_version: Optional[int] = None
    detail: str = ""

    @property
    def coupled(self) -> bool:
        return self.status is CouplingStatus.COUPLED


def check_coupling(
    account: CloudAccount,
    bucket: str,
    path: str,
    reader: ProvenanceReader,
) -> CouplingCheck:
    """Does the stored data at ``path`` match its stored provenance?

    Compares the version and content hash the data object's metadata
    carries against the ``sha1`` record in the provenance of that
    version, as §3's detection discussion prescribes.
    """
    record = account.s3.peek_latest(bucket, data_key(path))
    if record is None:
        return CouplingCheck(path, CouplingStatus.MISSING_DATA)
    metadata = record.metadata

    uuid = metadata.get("prov-uuid", "")
    version = int(metadata.get("version", "-1"))
    digest = metadata.get("digest", "")
    if not uuid:
        return CouplingCheck(
            path, CouplingStatus.MISSING_PROVENANCE, detail="no provenance link"
        )
    ref = NodeRef(uuid, version)
    attributes = reader.peek_attributes(ref)
    if not attributes:
        return CouplingCheck(
            path,
            CouplingStatus.STALE_PROVENANCE,
            data_version=version,
            detail=f"no provenance stored for {ref}",
        )
    hashes = attributes.get("sha1", [])
    if digest and hashes and digest not in hashes:
        return CouplingCheck(
            path,
            CouplingStatus.HASH_MISMATCH,
            data_version=version,
            provenance_version=version,
            detail=f"provenance sha1 {hashes} != data digest {digest}",
        )
    # Is there provenance describing a *newer* version than the data shows?
    newest = max(reader.peek_versions(uuid), default=version)
    if newest > version:
        return CouplingCheck(
            path,
            CouplingStatus.STALE_DATA,
            data_version=version,
            provenance_version=newest,
            detail="provenance describes a version the data never reached",
        )
    return CouplingCheck(
        path,
        CouplingStatus.COUPLED,
        data_version=version,
        provenance_version=version,
    )


# --------------------------------------------------------------------------
# Causal ordering detection (dangling ancestors)
# --------------------------------------------------------------------------

def find_dangling_ancestors(
    reader: ProvenanceReader, ref: NodeRef
) -> List[NodeRef]:
    """Ancestor references that resolve to no stored provenance — the
    dangling pointers a multi-object causal-ordering violation leaves."""
    dangling: List[NodeRef] = []
    seen: Set[NodeRef] = set()
    stack = [ref]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        attributes = reader.peek_attributes(current)
        if not attributes:
            if current != ref:
                dangling.append(current)
            continue
        stack.extend(reader.xrefs_of(attributes))
    return dangling
