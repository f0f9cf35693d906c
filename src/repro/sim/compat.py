"""The phased driver.

Runs one effect plan to completion with call-and-advance semantics:
``Delay`` advances the shared clock directly, and ``Batch`` executes
through the scheduler, advancing the clock when it is charged.  The
synchronous entry points — ``StorageProtocol.flush``,
``IngestGateway.flush_pending``, ``SimpleDBQueryEngine``'s queries, and
``ProtocolP3.finalize`` / ``run_cleaner`` over the daemons'
``until_idle`` / ``clean_plan`` — are their plans run through this
driver, so the phased experiments and the kernel execute the same code.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cloud.account import CloudAccount
from repro.errors import CloudServiceError

from repro.sim.events import Batch, Delay


def run_plan_phased(account: CloudAccount, plan: Generator) -> Any:
    """Drive ``plan`` synchronously; returns the generator's return value.

    Args:
        account: supplies the clock and scheduler.
        plan: a generator yielding :class:`Delay` / :class:`Batch`
            effects.  Batch results are sent back in; cloud-service
            errors raised while executing a batch are thrown back into
            the plan at the yield point (so retry loops written around
            ``yield Batch(...)`` work identically under both drivers).
            A batch advances the clock only if it is charged.
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
                    advance_clock=effect.charge,
                )
            except CloudServiceError as error:
                exc = error
        else:
            raise TypeError(f"plan yielded unknown effect {effect!r}")
