"""The four provenance-system properties (§3) as executable checkers.

Each checker inspects the *final* cloud state (omniscient peeks — the
eventual view once all writes have propagated) and reports violations.
Running them after crash-injection experiments reproduces Table 1:

- **Provenance data-coupling** — every stored data object matches the
  provenance stored for its version (and vice versa: provenance that
  describes data the store never received is a violation).
- **Multi-object causal ordering** — every ancestor referenced by stored
  provenance has stored provenance itself (no dangling pointers).
- **Data-independent persistence** — provenance of deleted objects is
  still present.
- **Efficient query** — structural: the backend can retrieve provenance
  by attribute without scanning every object (S3 cannot; SimpleDB can).
  The quantitative side is Table 5's query benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cloud.account import CloudAccount
from repro.provenance.graph import NodeRef

from repro.core.detection import (
    CouplingCheck,
    CouplingStatus,
    ProvenanceReader,
    check_coupling,
)
from repro.core.protocol_base import StorageProtocol, data_key


@dataclass
class PropertyReport:
    """Outcome of one property check."""

    property_name: str
    holds: bool
    violations: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        mark = "yes" if self.holds else "NO"
        lines = [f"{self.property_name}: {mark}"]
        lines.extend(f"  - {v}" for v in self.violations[:10])
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def check_data_coupling(
    account: CloudAccount,
    bucket: str,
    reader: ProvenanceReader,
    paths: Sequence[str],
    expected_uuids: Optional[Dict[str, str]] = None,
    deleted_paths: Sequence[str] = (),
) -> PropertyReport:
    """Eventual provenance data-coupling over the given paths.

    Both directions count: stored data whose provenance is stale, and —
    when ``expected_uuids`` maps a path to its object uuid — stored
    provenance describing data the store never received (the violation a
    crash between P1/P2's provenance write and data write leaves behind).
    Paths in ``deleted_paths`` were removed on purpose; their surviving
    provenance is data-independent persistence, not a violation.
    """
    violations: List[str] = []
    expected_uuids = expected_uuids or {}
    deleted = set(deleted_paths)
    for path in paths:
        check = check_coupling(account, bucket, path, reader)
        if check.status is CouplingStatus.MISSING_DATA:
            if path in deleted:
                continue
            uuid = expected_uuids.get(path)
            if uuid and reader.peek_versions(uuid):
                violations.append(
                    f"{path}: provenance stored for {uuid} but its data never "
                    "reached the store (crash between provenance and data writes)"
                )
            continue
        if not check.coupled:
            violations.append(
                f"{path}: {check.status.value} "
                f"(data v{check.data_version}, prov v{check.provenance_version}) "
                f"{check.detail}"
            )
    return PropertyReport("provenance-data-coupling", not violations, violations)


def check_causal_ordering(reader: ProvenanceReader) -> PropertyReport:
    """Eventual multi-object causal ordering over all stored provenance:
    every referenced ancestor must have stored provenance."""
    stored = set(reader.peek_refs())
    violations: List[str] = []
    for ref in stored:
        attributes = reader.peek_attributes(ref)
        for xref in reader.xrefs_of(attributes):
            if xref not in stored:
                violations.append(f"{ref} references missing ancestor {xref}")
    return PropertyReport("multi-object-causal-ordering", not violations, violations)


def check_persistence(
    account: CloudAccount,
    bucket: str,
    reader: ProvenanceReader,
    deleted: Sequence[NodeRef],
) -> PropertyReport:
    """Data-independent persistence: the provenance of every deleted
    object version must still be retrievable."""
    violations: List[str] = []
    for ref in deleted:
        if not reader.peek_attributes(ref):
            violations.append(f"provenance of deleted object {ref} is gone")
    return PropertyReport("data-independent-persistence", not violations, violations)


def check_efficient_query(protocol: StorageProtocol) -> PropertyReport:
    """Structural efficient-query property (Table 1's third row)."""
    if protocol.supports_efficient_query:
        return PropertyReport("efficient-query", True)
    return PropertyReport(
        "efficient-query",
        False,
        [
            f"protocol {protocol.name} stores provenance in the object store; "
            "attribute lookups require scanning every provenance object"
        ],
    )


@dataclass
class PropertyMatrix:
    """Table 1: which properties each protocol satisfied in an experiment."""

    rows: Dict[str, Dict[str, bool]] = field(default_factory=dict)

    def set(self, protocol: str, property_name: str, holds: bool) -> None:
        self.rows.setdefault(protocol, {})[property_name] = holds

    def get(self, protocol: str, property_name: str) -> Optional[bool]:
        return self.rows.get(protocol, {}).get(property_name)

    def render(self) -> str:
        """Text rendering in the paper's Table 1 layout."""
        properties = [
            "provenance-data-coupling",
            "multi-object-causal-ordering",
            "efficient-query",
        ]
        protocols = sorted(self.rows)
        width = max(len(p) for p in properties) + 2
        header = "Property".ljust(width) + "".join(
            p.upper().ljust(6) for p in protocols
        )
        lines = [header]
        for prop in properties:
            cells = []
            for protocol in protocols:
                value = self.rows[protocol].get(prop)
                cells.append(("yes" if value else "no").ljust(6))
            lines.append(prop.ljust(width) + "".join(cells))
        return "\n".join(lines)
