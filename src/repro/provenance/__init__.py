"""PASS substrate: provenance collection.

The paper uses PASS (Provenance-Aware Storage Systems) — a modified Linux
kernel that observes system calls — as its provenance *collection*
mechanism, and contributes the protocols that *store* the collected
provenance in the cloud.  This subpackage reimplements the collection
side:

- :mod:`repro.provenance.graph` — :class:`NodeRef`, the identity of one
  object version (provenance edges are the xref records that point at
  one; :class:`repro.query.ancestry.ProvenanceIndex` is the graph built
  from them),
- :mod:`repro.provenance.records` — provenance records and their wire
  sizes (these byte counts drive Tables 2 and 3),
- :mod:`repro.provenance.versioning` — causality-based versioning
  (cycle avoidance), after Muniswamy-Reddy & Holland, FAST '09,
- :mod:`repro.provenance.syscalls` — the simulated system-call trace
  model that stands in for the PASS kernel's interception layer,
- :mod:`repro.provenance.pass_collector` — turns a trace into provenance
  bundles ready for PA-S3fs to flush,
- :mod:`repro.provenance.serialization` — stable text encoding of
  records for cloud storage.
"""

from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import FlushIntent, PassCollector
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.syscalls import (
    CloseEvent,
    ComputeEvent,
    FlushEvent,
    ReadEvent,
    SpawnEvent,
    SyscallTrace,
    UnlinkEvent,
    WriteEvent,
)
from repro.provenance.versioning import VersionManager

__all__ = [
    "CloseEvent",
    "ComputeEvent",
    "FlushEvent",
    "FlushIntent",
    "NodeRef",
    "PassCollector",
    "ProvenanceBundle",
    "ProvenanceRecord",
    "ReadEvent",
    "SpawnEvent",
    "SyscallTrace",
    "UnlinkEvent",
    "VersionManager",
    "WriteEvent",
]
