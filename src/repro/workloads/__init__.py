"""Workload generators.

Deterministic stand-ins for the paper's three evaluation workloads (§5),
matched to their published shapes — provenance-tree depth, compute/IO mix,
output volume — plus the Linux-compile provenance stream behind Table 2
and the Figure 3 microbenchmark tool:

- :mod:`repro.workloads.nightly` — CVSROOT nightly backup: 30 snapshot
  tarballs, nearly flat provenance, I/O-bound,
- :mod:`repro.workloads.blast` — the NIH-style Blast job: depth-5
  provenance, heavy memory-bound compute, ~700 MB of final output,
- :mod:`repro.workloads.challenge` — the First Provenance Challenge fMRI
  pipeline: the deepest graph (max path length ~11),
- :mod:`repro.workloads.linux_compile` — 50 MB of kernel-compile
  provenance records (Table 2's upload payload),
- :mod:`repro.workloads.microbench` — replays captured provenance +
  final data objects through each protocol (Figure 3, Table 3),
- :mod:`repro.workloads.fleet` — the multi-tenant client fleet: many
  deterministic clients driven through the service-tier ingest gateway.
"""

from repro.workloads.base import Workload
from repro.workloads.blast import make_blast_workload
from repro.workloads.challenge import make_challenge_workload
from repro.workloads.fleet import (
    FleetClient,
    FleetRunResult,
    make_fleet,
    run_fleet,
)
from repro.workloads.linux_compile import make_linux_compile_records
from repro.workloads.microbench import run_microbenchmark
from repro.workloads.nightly import make_nightly_workload

__all__ = [
    "FleetClient",
    "FleetRunResult",
    "Workload",
    "make_blast_workload",
    "make_challenge_workload",
    "make_fleet",
    "make_linux_compile_records",
    "make_nightly_workload",
    "run_fleet",
    "run_microbenchmark",
]
