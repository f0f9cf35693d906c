"""The provenance DAG.

Provenance is a directed acyclic graph (§2 of the paper): nodes are
*versions* of objects (files, processes, pipes), and an edge ``A -> B``
records that A depends on — was derived from — B.  Each version of an
object is a distinct node; the graph is acyclic because an object cannot
be its own ancestor.

Acyclicity is enforced on every edge insertion.  The check is cheap in
the common case: nodes carry a creation index, and an edge pointing from
a newer node to an older one can never close a cycle, so the full
reachability search only runs for the rare "forward" edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CycleError, UnknownNodeError


class NodeType(enum.Enum):
    """Kinds of provenance objects PASS tracks."""

    FILE = "file"
    PROC = "proc"
    PIPE = "pipe"


class EdgeType(enum.Enum):
    """Dependency kinds.

    ``INPUT`` — the node was derived from the target (file read by a
    process, file written by a process, ...).
    ``VERSION`` — the node is the next version of the target.
    ``FORKPARENT`` — a process's parent process.
    ``EXEC`` — the executable file a process ran.
    """

    INPUT = "input"
    VERSION = "version"
    FORKPARENT = "forkparent"
    EXEC = "exec"


@dataclass(frozen=True, order=True)
class NodeRef:
    """Identity of one node: the object's uuid plus its version.

    The string form, ``uuid_version``, matches the paper's SimpleDB item
    naming (§4.3.2: object ``foo`` with uuid ``uuid1`` at version 2 is
    stored under item name ``uuid1_2``).
    """

    uuid: str
    version: int

    def __str__(self) -> str:
        return f"{self.uuid}_{self.version}"

    @staticmethod
    def parse(text: str) -> "NodeRef":
        """Inverse of ``str()``: split on the final underscore."""
        uuid, sep, version = text.rpartition("_")
        if not sep or not uuid:
            raise ValueError(f"malformed node reference {text!r}")
        return NodeRef(uuid, int(version))


@dataclass
class ProvenanceNode:
    """One object version with its attributes."""

    ref: NodeRef
    node_type: NodeType
    name: str = ""
    #: Free-form attributes (argv, env, pid, ...); values are strings.
    attributes: Dict[str, List[str]] = field(default_factory=dict)
    #: Monotonic creation index, used for the fast acyclicity check.
    creation_index: int = 0


@dataclass(frozen=True)
class Edge:
    """A dependency: ``src`` was derived from ``dst``."""

    src: NodeRef
    dst: NodeRef
    edge_type: EdgeType


class ProvenanceGraph:
    """A provenance DAG with enforced acyclicity.

    The graph is append-only: provenance is never rewritten, matching the
    data-independent-persistence property (§3).
    """

    def __init__(self) -> None:
        self._nodes: Dict[NodeRef, ProvenanceNode] = {}
        self._out: Dict[NodeRef, List[Edge]] = {}
        self._in: Dict[NodeRef, List[Edge]] = {}
        #: Pearce-Kelly topological order: every edge points at a
        #: lower-ordered node.
        self._order: Dict[NodeRef, int] = {}
        self._counter = 0

    # -- construction ------------------------------------------------------

    def add_node(
        self,
        ref: NodeRef,
        node_type: NodeType,
        name: str = "",
        attributes: Optional[Dict[str, List[str]]] = None,
    ) -> ProvenanceNode:
        """Add a node; re-adding an existing ref returns the original."""
        existing = self._nodes.get(ref)
        if existing is not None:
            return existing
        node = ProvenanceNode(
            ref=ref,
            node_type=node_type,
            name=name,
            attributes={k: list(v) for k, v in (attributes or {}).items()},
            creation_index=self._counter,
        )
        self._counter += 1
        self._nodes[ref] = node
        self._out[ref] = []
        self._in[ref] = []
        self._order[ref] = node.creation_index
        return node

    def add_edge(self, src: NodeRef, dst: NodeRef, edge_type: EdgeType) -> Edge:
        """Record that ``src`` depends on ``dst``.

        Raises :class:`CycleError` if the edge would make ``src`` its own
        ancestor, and :class:`UnknownNodeError` for dangling endpoints.

        Acyclicity is maintained with the Pearce-Kelly incremental
        topological-order algorithm: the graph keeps an order in which
        every dependency points at a lower-ordered node; an edge that
        respects the order is accepted in O(1), and only order-violating
        edges trigger a bounded search of the affected region.
        """
        if src not in self._nodes:
            raise UnknownNodeError(f"unknown source node {src}")
        if dst not in self._nodes:
            raise UnknownNodeError(f"unknown target node {dst}")
        if src == dst:
            raise CycleError(f"self-dependency on {src}")
        if self._order[dst] >= self._order[src]:
            self._reorder_for_edge(src, dst)
        edge = Edge(src, dst, edge_type)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    def _reorder_for_edge(self, src: NodeRef, dst: NodeRef) -> None:
        """Restore the topological order for a violating edge src -> dst
        (``order[dst] >= order[src]``), or raise :class:`CycleError`."""
        lower, upper = self._order[src], self._order[dst]

        # Forward region: nodes reachable from dst via *dependent* edges
        # (in-edges), confined to order <= upper... we search the nodes
        # that depend on dst transitively with order < lower? Use the
        # classic formulation: delta_f = nodes reachable from dst along
        # dependency (out) edges with order >= lower; finding src there
        # means src is already an ancestor of dst -> cycle.
        delta_f: List[NodeRef] = []
        seen: Set[NodeRef] = {dst}
        stack = [dst]
        while stack:
            current = stack.pop()
            delta_f.append(current)
            for edge in self._out[current]:
                nxt = edge.dst
                if nxt == src:
                    raise CycleError(
                        f"edge {src} -> {dst} would create a cycle"
                    )
                if nxt not in seen and self._order[nxt] >= lower:
                    seen.add(nxt)
                    stack.append(nxt)

        # Backward region: nodes that transitively depend on src with
        # order <= upper.
        delta_b: List[NodeRef] = []
        seen_b: Set[NodeRef] = {src}
        stack = [src]
        while stack:
            current = stack.pop()
            delta_b.append(current)
            for edge in self._in[current]:
                nxt = edge.src
                if nxt not in seen_b and self._order[nxt] <= upper:
                    seen_b.add(nxt)
                    stack.append(nxt)

        # Reassign the affected orders: the forward region (dst and its
        # ancestors in range) must sit below the backward region (src and
        # its dependents in range).
        delta_f.sort(key=lambda n: self._order[n])
        delta_b.sort(key=lambda n: self._order[n])
        pool = sorted(self._order[n] for n in delta_f + delta_b)
        for position, node in enumerate(delta_f + delta_b):
            self._order[node] = pool[position]

    # -- access -------------------------------------------------------------

    def node(self, ref: NodeRef) -> ProvenanceNode:
        try:
            return self._nodes[ref]
        except KeyError:
            raise UnknownNodeError(f"unknown node {ref}") from None

    def has_node(self, ref: NodeRef) -> bool:
        return ref in self._nodes

    def nodes(self) -> Iterator[ProvenanceNode]:
        return iter(self._nodes.values())

    def out_edges(self, ref: NodeRef) -> List[Edge]:
        """Dependencies of ``ref`` (its direct ancestors)."""
        if ref not in self._nodes:
            raise UnknownNodeError(f"unknown node {ref}")
        return list(self._out[ref])

    def in_edges(self, ref: NodeRef) -> List[Edge]:
        """Direct descendants of ``ref``."""
        if ref not in self._nodes:
            raise UnknownNodeError(f"unknown node {ref}")
        return list(self._in[ref])

    def __len__(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    # -- traversal ------------------------------------------------------------

    def ancestors(self, ref: NodeRef) -> Set[NodeRef]:
        """All transitive dependencies of ``ref`` (excluding itself)."""
        return self._closure(ref, self._out)

    def descendants(self, ref: NodeRef) -> Set[NodeRef]:
        """All transitive dependents of ``ref`` (excluding itself)."""
        return self._closure(ref, self._in)

    def _closure(
        self, ref: NodeRef, adjacency: Dict[NodeRef, List[Edge]]
    ) -> Set[NodeRef]:
        if ref not in self._nodes:
            raise UnknownNodeError(f"unknown node {ref}")
        seen: Set[NodeRef] = set()
        stack = [ref]
        forward = adjacency is self._out
        while stack:
            current = stack.pop()
            for edge in adjacency.get(current, ()):
                nxt = edge.dst if forward else edge.src
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    # -- analytics --------------------------------------------------------------

    def max_depth(self, include_versions: bool = True) -> int:
        """Length of the longest dependency path in the graph (the paper
        characterizes workloads by this: nightly ≈ 1, Blast ≈ 5,
        Challenge ≈ 11).

        With ``include_versions=False``, VERSION edges are skipped: the
        result is the *derivation* depth the paper quotes, independent of
        how many logical versions the freeze/thaw rules created.
        """
        depth: Dict[NodeRef, int] = {}

        order = sorted(self._nodes, key=lambda r: self._order[r])
        # The Pearce-Kelly order is topological (dependencies first), so a
        # single pass suffices; iterate to a fixed point anyway in case of
        # ties (the graph is a DAG; this terminates).
        changed = True
        while changed:
            changed = False
            for ref in order:
                best = 0
                for edge in self._out[ref]:
                    if not include_versions and edge.edge_type is EdgeType.VERSION:
                        continue
                    best = max(best, depth.get(edge.dst, 0) + 1)
                if depth.get(ref, 0) != best:
                    depth[ref] = best
                    changed = True
        return max(depth.values(), default=0)

    def versions_of(self, uuid: str) -> List[NodeRef]:
        """All version nodes of one object, sorted by version."""
        return sorted(
            (ref for ref in self._nodes if ref.uuid == uuid),
            key=lambda r: r.version,
        )

    def roots(self) -> List[NodeRef]:
        """Nodes with no dependencies (primary inputs)."""
        return [ref for ref in self._nodes if not self._out[ref]]
