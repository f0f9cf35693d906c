"""Common workload descriptor."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict

from repro.core.pas3fs import MOUNT, Replay, collect  # noqa: F401 - workloads import MOUNT here
from repro.provenance.syscalls import SyscallTrace


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

    @cached_property
    def replay(self) -> Replay:
        """The trace collected once; every run of this workload object
        replays it."""
        return collect(self.trace)
