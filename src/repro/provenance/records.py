"""Provenance records.

A *record* is one fact about one node: an attribute value or a dependency
cross-reference.  PASS streams records to its storage backend; the cloud
protocols chunk, batch, and store them.  Record byte sizes (the wire
encoding in :mod:`repro.provenance.serialization`) are what Tables 2 and 3
of the paper count.

A :class:`ProvenanceBundle` is the unit PA-S3fs caches in memory and
flushes on close: all records describing one object, grouped by version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.provenance.graph import NodeRef

#: A record value: free text or a reference to another node.
Value = Union[str, NodeRef]


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    """One provenance fact: ``subject.attribute = value``."""

    subject: NodeRef
    attribute: str
    value: Value

    @property
    def is_xref(self) -> bool:
        """Whether the value references another node (a dependency)."""
        return isinstance(self.value, NodeRef)

    def value_text(self) -> str:
        """The value as stored text (xrefs use the ``uuid_version`` form)."""
        return str(self.value)

    def wire_size(self) -> int:
        """Bytes this record occupies in the wire encoding (one line:
        subject, attribute, kind, value, three pipes, and a newline)."""
        return (
            len(str(self.subject)) + len(self.attribute) + len(self.value_text()) + 5
        )


@dataclass(slots=True)
class ProvenanceBundle:
    """All pending provenance for one object, grouped by version.

    Attributes:
        uuid: the object's uuid.
        records: records in arrival order; every record's subject has the
            bundle's uuid.
    """

    uuid: str
    records: List[ProvenanceRecord] = field(default_factory=list)

    def add(self, record: ProvenanceRecord) -> None:
        if record.subject.uuid != self.uuid:
            raise ValueError(
                f"record subject {record.subject} does not belong to bundle "
                f"{self.uuid}"
            )
        self.records.append(record)

    def by_version(self) -> Dict[int, List[ProvenanceRecord]]:
        """Records grouped by subject version (the paper stores one
        SimpleDB item per version; §4.3.2)."""
        grouped: Dict[int, List[ProvenanceRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.subject.version, []).append(record)
        return grouped

    def versions(self) -> List[int]:
        return sorted(self.by_version())

    def xrefs(self) -> List[NodeRef]:
        """All node references this bundle's records point at (the
        ancestors that multi-object causal ordering must persist first)."""
        return [r.value for r in self.records if isinstance(r.value, NodeRef)]


def merge_bundles(bundles: Iterable[ProvenanceBundle]) -> Dict[str, ProvenanceBundle]:
    """Merge bundles by uuid, preserving record order within each uuid."""
    merged: Dict[str, ProvenanceBundle] = {}
    for bundle in bundles:
        target = merged.setdefault(bundle.uuid, ProvenanceBundle(uuid=bundle.uuid))
        for record in bundle.records:
            target.add(record)
    return merged
