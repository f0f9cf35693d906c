"""Drain a P3 commit daemon by itself, as ``ProtocolP3.finalize`` does.

The commit daemon has one loop, ``CommitDaemon.process()``.
:func:`drain` runs any daemon's loop until its first idle round.  One
effect plan by itself (a commit group, a retirement, a cleaning pass)
runs with ``repro.sim.run_plan_phased``.
"""

from repro.sim import run_plan_phased


def drain(daemon):
    """Run ``daemon`` until a round receives nothing while nothing is
    held; returns ``(committed so far, transactions still pending)``."""
    run_plan_phased(daemon.account, daemon.until_idle())
    return daemon.committed_count(), len(daemon.pending_transactions())
