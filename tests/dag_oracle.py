"""The DAG oracle: provenance a collection emits is acyclic.

PASS keeps provenance acyclic by versioning (§2.1), and the collector
checks nothing at run time.  This oracle checks it after the fact:
:func:`emitted_index` builds a ``ProvenanceIndex`` from every record
``collect(trace)`` emitted, and :func:`topological_order` sorts its xref
edges with Kahn's algorithm, raising ``AssertionError`` with one cycle
when there is none.  :func:`derivation_depth` is the longest dependency
path over the same sort, ``version-of`` edges skipped: the depth the
paper characterizes its workloads by (the challenge's is eleven).
"""

from collections import defaultdict
from unittest import mock

from repro.core import FlushWork, collect
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import PassCollector
from repro.query.ancestry import XREF_ATTRIBUTES, ProvenanceIndex

#: Xref attributes that derive one node from another; ``version-of``
#: only links an object's versions.
DERIVATION_ATTRIBUTES = XREF_ATTRIBUTES - {"version-of"}


def emitted_index(trace):
    """A ``ProvenanceIndex`` over every record ``collect(trace)`` emitted:
    each flush's popped bundles, then whatever is still pending."""
    built = []
    init = PassCollector.__init__

    def keeping_init(self):
        built.append(self)
        init(self)

    with mock.patch.object(PassCollector, "__init__", keeping_init):
        replay = collect(trace)
    (collector,) = built
    index = ProvenanceIndex()
    for step in replay.steps:
        if isinstance(step, FlushWork):
            for bundle in step.bundles:
                index.ingest(bundle.records)
    for bundle in collector._pending.values():
        index.ingest(bundle.records)
    return index


def _targets(index, ref, attributes):
    values = index.attributes(ref)
    return {
        NodeRef.parse(value)
        for attribute in attributes
        for value in values.get(attribute, ())
    }


def topological_order(index):
    """Every node of ``index``, each after all of its dependencies
    (Kahn's algorithm); raises ``AssertionError`` naming a cycle."""
    dependencies = {ref: _targets(index, ref, XREF_ATTRIBUTES) for ref in index.refs()}
    dependents = defaultdict(set)
    for ref, targets in list(dependencies.items()):
        for target in targets:
            dependents[target].add(ref)
            dependencies.setdefault(target, set())
    remaining = {ref: len(targets) for ref, targets in dependencies.items()}
    ready = sorted(ref for ref, count in remaining.items() if count == 0)
    order = []
    while ready:
        ref = ready.pop()
        order.append(ref)
        for dependent in dependents[ref]:
            remaining[dependent] -= 1
            if remaining[dependent] == 0:
                ready.append(dependent)
    if len(order) < len(dependencies):
        unsorted = {ref for ref, count in remaining.items() if count}
        raise AssertionError(
            "provenance cycle: "
            + " -> ".join(str(ref) for ref in _a_cycle(dependencies, unsorted))
        )
    return order


def _a_cycle(dependencies, unsorted):
    """One cycle among the nodes Kahn's algorithm could not sort: each
    of them still depends on another of them, so following those
    dependencies must come back to a node already on the path."""
    path, position = [], {}
    ref = min(unsorted)
    while ref not in position:
        position[ref] = len(path)
        path.append(ref)
        ref = min(dependencies[ref] & unsorted)
    return path[position[ref]:] + [ref]


def assert_dag(index):
    """Fail with one cycle unless ``index``'s xref edges form a DAG."""
    topological_order(index)


def derivation_depth(index):
    """Longest dependency path in ``index``, ``version-of`` edges skipped."""
    depth = {}
    for ref in topological_order(index):
        depth[ref] = max(
            (depth[target] + 1 for target in _targets(index, ref, DERIVATION_ATTRIBUTES)),
            default=0,
        )
    return max(depth.values(), default=0)
