"""The paper's contribution: protocols for storing provenance in the cloud.

- :mod:`repro.core.protocol_base` — the common protocol interface and
  bookkeeping (ancestor tracking, data-object naming, flush work units),
- :mod:`repro.core.p1_store_only` — **P1**: standalone cloud store
  (provenance lives in uuid-named S3 objects),
- :mod:`repro.core.p2_store_db` — **P2**: cloud store + cloud database
  (provenance as SimpleDB items, one per object version, >1 KB values
  spilled to S3),
- :mod:`repro.core.p3_wal` — **P3**: cloud store + database + messaging
  service (an SQS write-ahead log plus a commit daemon gives eventual
  provenance data-coupling),
- :mod:`repro.core.commit_daemon` / :mod:`repro.core.cleaner_daemon` —
  P3's asynchronous halves,
- :mod:`repro.core.detection` — read-side detection of coupling and
  causal-ordering violations (version compare, content hash, dangling
  ancestors),
- :mod:`repro.core.properties` — the four provenance-system properties
  (§3) as executable checkers,
- :mod:`repro.core.pas3fs` — PA-S3fs (the provenance-aware FUSE layer),
  the one collection pass it replays, and the plain S3fs baseline.
"""

from repro.core.commit_daemon import CommitDaemon
from repro.core.cleaner_daemon import CleanerDaemon
from repro.core.p1_store_only import ProtocolP1
from repro.core.p2_store_db import ProtocolP2
from repro.core.p3_wal import ProtocolP3
from repro.core.pas3fs import PAS3fs, PlainS3fs, RunResult, collect
from repro.core.protocol_base import FlushWork, StorageProtocol, UploadMode

#: The paper's three protocols by configuration name.
PROTOCOLS = {"p1": ProtocolP1, "p2": ProtocolP2, "p3": ProtocolP3}

__all__ = [
    "CleanerDaemon",
    "CommitDaemon",
    "FlushWork",
    "PAS3fs",
    "PROTOCOLS",
    "PlainS3fs",
    "ProtocolP1",
    "ProtocolP2",
    "ProtocolP3",
    "RunResult",
    "StorageProtocol",
    "UploadMode",
    "collect",
]
