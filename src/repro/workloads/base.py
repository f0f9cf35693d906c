"""Common workload descriptor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.provenance.syscalls import SyscallTrace

#: The S3fs mount point used by all workloads.
MOUNT = "/mnt/s3/"


@dataclass
class Workload:
    """A named, deterministic workload.

    Attributes:
        name: short identifier ("nightly", "blast", "challenge").
        trace: the syscall event stream.
        staged_inputs: mount-resident input files (path -> bytes) that
            must exist in S3 before the run (pre-staged, untimed).
        description: one-line summary.
    """

    name: str
    trace: SyscallTrace
    staged_inputs: Dict[str, int] = field(default_factory=dict)
    description: str = ""
