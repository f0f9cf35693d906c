"""Read-side detection of coupling and causal-ordering violations.

Systems without data-coupling can still *detect* decoupling on access
(§3): the provenance carries a content hash and the data object's
metadata carries its version, so a reader can tell when the pieces do not
match and refresh until they do.  This module implements that detection
for both provenance backends, plus the Merkle-style ancestry hash the
paper suggests for verifying multi-object causal ordering under eventual
consistency (§4.3.1).

Two access styles per backend:

- ``read_*`` — timed, visibility-respecting requests (what a real client
  sees; subject to eventual consistency),
- ``peek_*`` — omniscient final state, used only by the property checkers
  in :mod:`repro.core.properties`.
"""

from __future__ import annotations

import enum
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cloud.account import CloudAccount
from repro.errors import NoSuchKeyError
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
    def read_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        """Timed fetch of one node-version's attributes (may be stale or
        empty under eventual consistency)."""

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

    def _attributes_from_text(
        self, text: str, ref: NodeRef
    ) -> Dict[str, List[str]]:
        attributes: Dict[str, List[str]] = {}
        for record in decode_records(text):
            if record.subject == ref:
                attributes.setdefault(record.attribute, []).append(
                    record.value_text()
                )
        return attributes

    def read_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        try:
            blob, _ = self.account.s3.get(
                self.bucket, provenance_object_key(ref.uuid)
            )
        except NoSuchKeyError:
            return {}
        return self._attributes_from_text(blob.text(), ref)

    def peek_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        record = self.account.s3.peek_latest(
            self.bucket, provenance_object_key(ref.uuid)
        )
        if record is None or record.blob.data is None:
            return {}
        return self._attributes_from_text(record.blob.text(), ref)

    def peek_refs(self) -> List[NodeRef]:
        refs: Set[NodeRef] = set()
        for key in self.account.s3.peek_keys(self.bucket, "prov/"):
            record = self.account.s3.peek_latest(self.bucket, key)
            if record is None or record.blob.data is None:
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

    def _fetch_spill_text(self, key: str, timed: bool) -> Optional[str]:
        if timed:
            try:
                blob, _ = self.account.s3.get(self.bucket, key)
            except NoSuchKeyError:
                return None
        else:
            record = self.account.s3.peek_latest(self.bucket, key)
            if record is None:
                return None
            blob = record.blob
        return blob.text() if blob.data is not None else None

    def _resolve_spills(
        self, attributes: Dict[str, List[str]], timed: bool
    ) -> Dict[str, List[str]]:
        resolved: Dict[str, List[str]] = {}
        for attribute, values in attributes.items():
            if attribute == sdb_items.OVERFLOW_ATTRIBUTE:
                # Records beyond the 256-pair item limit live in an S3
                # overflow object; merge them back in.
                for value in values:
                    if not sdb_items.is_spill_pointer(value):
                        continue
                    text = self._fetch_spill_text(
                        sdb_items.spill_pointer_key(value), timed
                    )
                    if text is None:
                        continue
                    for record in decode_records(text):
                        resolved.setdefault(record.attribute, []).append(
                            record.value_text()
                        )
                continue
            out: List[str] = []
            for value in values:
                if sdb_items.is_spill_pointer(value):
                    key = sdb_items.spill_pointer_key(value)
                    if timed:
                        try:
                            blob, _ = self.account.s3.get(self.bucket, key)
                        except NoSuchKeyError:
                            out.append(value)
                            continue
                    else:
                        record = self.account.s3.peek_latest(self.bucket, key)
                        if record is None:
                            out.append(value)
                            continue
                        blob = record.blob
                    out.append(blob.text() if blob.data is not None else value)
                else:
                    out.append(value)
            # extend, not assign: overflow may already have merged values
            # for this attribute.
            resolved.setdefault(attribute, []).extend(out)
        return resolved

    def read_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        attributes = self.account.simpledb.get_attributes(self.domain, str(ref))
        return self._resolve_spills(attributes, timed=True)

    def peek_attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        attributes = self.account.simpledb.peek_item(self.domain, str(ref))
        return self._resolve_spills(attributes, timed=False)

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
    timed: bool = True,
) -> CouplingCheck:
    """Does the stored data at ``path`` match its stored provenance?

    Compares the version and content hash the data object's metadata
    carries against the ``sha1`` record in the provenance of that
    version, as §3's detection discussion prescribes.
    """
    key = data_key(path)
    if timed:
        try:
            head = account.s3.head(bucket, key)
            metadata = head.metadata
        except NoSuchKeyError:
            return CouplingCheck(path, CouplingStatus.MISSING_DATA)
    else:
        record = account.s3.peek_latest(bucket, key)
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
    attributes = (
        reader.read_attributes(ref) if timed else reader.peek_attributes(ref)
    )
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
# Causal ordering detection (dangling ancestors, Merkle ancestry hash)
# --------------------------------------------------------------------------

def find_dangling_ancestors(
    reader: ProvenanceReader, ref: NodeRef, timed: bool = False
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
        attributes = (
            reader.read_attributes(current)
            if timed
            else reader.peek_attributes(current)
        )
        if not attributes:
            if current != ref:
                dangling.append(current)
            continue
        stack.extend(reader.xrefs_of(attributes))
    return dangling


def ancestry_hash(reader: ProvenanceReader, ref: NodeRef) -> str:
    """Merkle-style hash over a node's full ancestry.

    Two replicas agree on an object's complete causal history iff their
    ancestry hashes match — the verification scheme §4.3.1 sketches for
    readers that must check multi-object causal ordering under eventual
    consistency.  A missing ancestor hashes as the distinguished string
    ``MISSING``, so any dangling pointer changes the digest.
    """
    memo: Dict[NodeRef, str] = {}

    def visit(current: NodeRef, trail: Set[NodeRef]) -> str:
        if current in memo:
            return memo[current]
        if current in trail:
            return "CYCLE"
        attributes = reader.peek_attributes(current)
        if not attributes:
            memo[current] = hashlib.sha1(b"MISSING").hexdigest()
            return memo[current]
        hasher = hashlib.sha1()
        for attribute in sorted(attributes):
            for value in sorted(attributes[attribute]):
                hasher.update(f"{attribute}={value};".encode("utf-8"))
        for xref in sorted(reader.xrefs_of(attributes)):
            child = visit(xref, trail | {current})
            hasher.update(child.encode("ascii"))
        memo[current] = hasher.hexdigest()
        return memo[current]

    return visit(ref, set())
