"""Provenance node identity.

Provenance is a directed acyclic graph (§2 of the paper): nodes are
*versions* of objects (files, processes, pipes), and an edge ``A -> B``
records that A depends on — was derived from — B.  Each version of an
object is a distinct node, and the collector's causality-based
versioning (:mod:`repro.provenance.versioning`) keeps an object from
becoming its own ancestor.

The edges are the xref records themselves (``input``, ``forkparent``,
``exec``, ``version-of``); :class:`repro.query.ancestry.ProvenanceIndex`
is the one graph built from them.  Nothing checks acyclicity at run
time: the test suite's DAG oracle topologically sorts every record a
collection emits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
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
