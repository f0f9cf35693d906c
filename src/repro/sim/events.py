"""The effect vocabulary shared by every simulated process.

A *process* is a Python generator that yields effects instead of calling
the scheduler directly.  The same generator can then be driven two ways:

- by :class:`~repro.sim.kernel.SimKernel`, which interleaves many
  processes on the virtual clock (the concurrent execution model), or
- by :func:`~repro.sim.compat.run_plan_phased`, which executes one plan
  to completion with call-and-advance semantics (the phased mode).

Under the phased driver a ``Delay`` is a ``clock.advance`` and a
``Batch`` is a ``scheduler.execute_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.network import Request


@dataclass
class Delay:
    """Suspend the process for ``seconds`` of virtual time.

    Under the kernel the process is rescheduled at ``now + seconds`` and
    the time is accounted as idle in its time domain.  Under the phased
    driver the shared clock advances by ``seconds`` (the pre-kernel
    behaviour of serial client-side work such as marshalling CPU or the
    commit daemon's propagation backoff).
    """

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"cannot delay by negative seconds={self.seconds}")


@dataclass
class Batch:
    """Execute a request batch; the process resumes with its
    :class:`~repro.cloud.network.BatchResult`.

    Attributes:
        requests: the prepared cloud requests.
        connections: parallel connections for the batch.
        charge: whether the batch's makespan occupies the *process's own*
            timeline.  Under the kernel a charged batch resumes the
            process at the batch's finish time (busy time in its domain);
            an uncharged batch resumes it immediately — work applied and
            billed, but free for the issuing process, which is how the
            legacy ``advance_clock=False`` daemon accounting maps onto a
            per-process time domain.  The phased driver instead maps
            ``charge`` onto its own ``advance_clock`` policy (see
            :func:`~repro.sim.compat.run_plan_phased`).
    """

    requests: List["Request"]
    connections: int = 32
    charge: bool = True
