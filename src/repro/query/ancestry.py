"""Client-side provenance graph reconstruction.

P1 has no server-side query capability: clients download provenance
objects and process them locally (§5.3: "we implemented these two queries
in S3 by retrieving all provenance objects and then processing the query
locally").  :class:`ProvenanceIndex` is that local processing: it ingests
records and answers attribute lookups and closure queries.  It is the
package's one provenance graph type: the collector keeps none.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set

from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceRecord

#: Attributes whose values are node references (dependency edges).  The
#: coupling checks and the HTTP ingest's validation use this same set.
XREF_ATTRIBUTES = frozenset({"input", "forkparent", "exec", "version-of"})


class ProvenanceIndex:
    """An in-memory index over fetched provenance records."""

    def __init__(self) -> None:
        #: ref -> attribute -> values
        self._attributes: Dict[NodeRef, Dict[str, List[str]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: dependency edges: ref -> ancestors it points at.
        self._out: Dict[NodeRef, Set[NodeRef]] = defaultdict(set)
        #: reverse edges: ref -> nodes that point at it.
        self._in: Dict[NodeRef, Set[NodeRef]] = defaultdict(set)

    def ingest(self, records: Iterable[ProvenanceRecord]) -> None:
        """Add records to the index."""
        for record in records:
            self.add(record.subject, record.attribute, record.value_text())

    def add(self, subject: NodeRef, attribute: str, value: str) -> None:
        """Add one attribute value (parsing xrefs into edges)."""
        self._attributes[subject][attribute].append(value)
        if attribute in XREF_ATTRIBUTES:
            try:
                target = NodeRef.parse(value)
            except ValueError:
                return
            self._out[subject].add(target)
            self._in[target].add(subject)

    def ingest_attribute_map(
        self, ref: NodeRef, attributes: Dict[str, List[str]]
    ) -> None:
        """Add a whole attribute map for one node (SimpleDB item shape)."""
        for attribute, values in attributes.items():
            for value in values:
                self.add(ref, attribute, value)

    # -- lookups -------------------------------------------------------------

    def refs(self) -> List[NodeRef]:
        return sorted(self._attributes)

    def attributes(self, ref: NodeRef) -> Dict[str, List[str]]:
        return {a: list(v) for a, v in self._attributes.get(ref, {}).items()}

    def find(self, attribute: str, value: str) -> List[NodeRef]:
        """All nodes with ``attribute`` containing ``value``."""
        return sorted(
            ref
            for ref, attrs in self._attributes.items()
            if value in attrs.get(attribute, [])
        )

    # -- closures ---------------------------------------------------------------

    def ancestors(self, ref: NodeRef) -> Set[NodeRef]:
        """Transitive dependencies of ``ref`` (excluding itself)."""
        return self._closure(ref, self._out)

    def descendants(self, ref: NodeRef) -> Set[NodeRef]:
        """Transitive dependents of ``ref`` (excluding itself)."""
        return self._closure(ref, self._in)

    def direct_dependents(self, ref: NodeRef) -> Set[NodeRef]:
        return set(self._in.get(ref, set()))

    def ancestors_direct(self, ref: NodeRef) -> Set[NodeRef]:
        """Direct dependencies (one hop along out-edges)."""
        return set(self._out.get(ref, set()))

    def _closure(
        self, ref: NodeRef, adjacency: Dict[NodeRef, Set[NodeRef]]
    ) -> Set[NodeRef]:
        seen: Set[NodeRef] = set()
        stack = [ref]
        while stack:
            current = stack.pop()
            for nxt in adjacency.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def __len__(self) -> int:
        return len(self._attributes)
