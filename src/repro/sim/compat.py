"""The phased driver.

Runs one effect plan to completion with call-and-advance semantics:
``Delay`` advances the shared clock directly, ``Batch`` executes through
the scheduler with the caller's ``advance_clock`` policy.  Every
synchronous entry point — ``StorageProtocol.flush``,
``CommitDaemon.commit``, ``CleanerDaemon.clean``,
``IngestGateway.flush_pending`` — is its plan run through this driver,
so the phased experiments and the kernel execute the same code.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cloud.account import CloudAccount
from repro.errors import CloudServiceError

from repro.sim.events import Batch, Delay


def run_plan_phased(
    account: CloudAccount,
    plan: Generator,
    advance_clock: bool = True,
) -> Any:
    """Drive ``plan`` synchronously; returns the generator's return value.

    Args:
        account: supplies the clock and scheduler.
        plan: a generator yielding :class:`Delay` / :class:`Batch`
            effects.  Batch results are sent back in; cloud-service
            errors raised while executing a batch are thrown back into
            the plan at the yield point (so retry loops written around
            ``yield Batch(...)`` work identically under both drivers).
        advance_clock: whether batches advance the shared clock — the
            pre-kernel accounting knob (clients pass True; daemons whose
            time the paper excludes pass False).  Delays always advance
            the clock, matching the pre-kernel code they replace.
    """
    value: Any = None
    exc: Optional[BaseException] = None
    while True:
        try:
            effect = plan.throw(exc) if exc is not None else plan.send(value)
        except StopIteration as stop:
            return stop.value
        value, exc = None, None
        if isinstance(effect, Delay):
            account.clock.advance(effect.seconds)
        elif isinstance(effect, Batch):
            try:
                value = account.scheduler.execute_batch(
                    effect.requests,
                    effect.connections,
                    advance_clock=advance_clock and effect.charge,
                )
            except CloudServiceError as error:
                exc = error
        else:
            raise TypeError(f"plan yielded unknown effect {effect!r}")
