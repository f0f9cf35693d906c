"""The discrete-event simulation kernel.

The pre-kernel execution model was *phased*: a client ran to completion
(each request batch advancing the shared clock), then the commit daemon
was hand-pumped via ``drain()``.  The kernel replaces that with an event
loop over scheduled process activations: clients, commit/cleaner
daemons, ingest gateways, and monitors all run as generator-based
processes that ``yield`` effects (:class:`~repro.sim.events.Delay`,
:class:`~repro.sim.events.Batch`) and genuinely overlap on the virtual
clock — commit lag, WAL backlog, and mid-commit takeover become
observable.

Every protocol flush, daemon step and gateway window is written once, as
an effect plan, and two drivers execute it:

- :class:`~repro.sim.kernel.SimKernel` — concurrent: each process has
  its own time domain; the kernel interleaves activations in virtual
  time,
- :func:`~repro.sim.compat.run_plan_phased` — phased: one plan runs to
  completion on the shared clock.  The synchronous methods
  (``StorageProtocol.flush``, ``CommitDaemon.commit``,
  ``IngestGateway.flush_pending``) are this driver over their plans.

The Figure 3 microbenchmark walks flush plans a third way: it only
collects their requests into one upload batch.
"""

from repro.sim.compat import run_plan_phased
from repro.sim.events import Batch, Delay
from repro.sim.kernel import Process, ProcessState, SimKernel

__all__ = [
    "Batch",
    "Delay",
    "Process",
    "ProcessState",
    "SimKernel",
    "run_plan_phased",
]
