#!/usr/bin/env python3
"""Chaos recovery: kill the commit daemon on a schedule, respawn it,
and get byte-identical answers anyway.

The paper's recovery argument for P3 (§4.3.3) is one sentence: "if the
machine running the commit daemon crashes, any other machine can run a
daemon against the same queue and finish the job."  This walkthrough
runs that sentence as a *schedule*, not a single staged crash:

1. A small fleet of clients logs P3 transactions into the shared SQS
   write-ahead log while one commit daemon drains it — all interleaved
   on the simulation kernel's virtual clock.
2. A recurring crash kills the daemon every 15 virtual seconds —
   whatever it is doing, including mid-commit — and a respawn policy
   brings up a *fresh* ``CommitDaemon`` two seconds later, resuming
   from the queue.  The dead daemon's received-but-undeleted messages
   reappear after SQS's visibility timeout; re-issued writes are
   set-semantics no-ops.
3. The same fleet runs again with no faults at all, and the settled
   stores' Q1-Q4 answers (and the billing of running them) are compared
   byte for byte.

See docs/faults.md for every crash point and schedule knob.

Run:  PYTHONPATH=src python examples/chaos_recovery.py
"""

from repro.cloud.account import CloudAccount
from repro.workloads.fleet import RESPAWN_DELAY_S, P3FleetRun, make_fleet

CLIENTS = 2
FILES_PER_CLIENT = 3
CRASH_EVERY_S = 15.0


def run_fleet(chaos: bool):
    """One fleet run, drained and fingerprinted."""
    account = CloudAccount(seed=0)
    crash = None
    if chaos:
        # ``P3FleetRun``'s static pool respawns ``pool-0`` after every kill.
        crash = account.faults.schedule.crash_every(
            "pool-0", every_s=CRASH_EVERY_S, start_at=5.0
        )
    fleet = make_fleet(
        clients=CLIENTS, files_per_client=FILES_PER_CLIENT,
        file_bytes=16 * 1024, extra_attributes=8, seed=0,
    )
    run = P3FleetRun(account, fleet, daemons=1, readers=0, seed=0)
    run.drain()
    outcome = run.settled_fingerprint()
    return {
        "outcome": outcome,
        "committed": run.committed,
        "flushes": run.flushes,
        "incarnations": len(run.daemons),
        "crashes": len(crash.fired_at) if crash else 0,
    }


def main() -> None:
    print("=== run 1: no faults (the reference) ===")
    steady = run_fleet(chaos=False)
    print(
        f"committed {steady['committed']}/{steady['flushes']} transactions, "
        f"{steady['incarnations']} daemon incarnation"
    )

    print(f"\n=== run 2: kill pool-0 every {CRASH_EVERY_S:.0f}s, "
          f"respawn a fresh daemon {RESPAWN_DELAY_S:.0f}s later ===")
    chaos = run_fleet(chaos=True)
    print(
        f"committed {chaos['committed']}/{chaos['flushes']} transactions "
        f"through {chaos['incarnations']} daemon incarnations "
        f"({chaos['crashes']} scheduled kills)"
    )

    print("\n=== the recovery invariant ===")
    before, after = steady["outcome"], chaos["outcome"]
    identical = (
        before.answers == after.answers
        and before.query_billing == after.query_billing
    )
    print(
        "Q1-Q4 answers and their billing byte-identical to the uncrashed "
        f"run: {identical}"
    )
    if not identical:
        raise SystemExit("recovery invariant violated!")
    print(f"store fingerprint, no faults: {before.store_fingerprint[:16]}")
    print(f"store fingerprint, chaos:     {after.store_fingerprint[:16]}")
    print(
        "\nThe WAL queue, not any daemon's memory, is the authority: "
        "every kill landed between or inside commits, SQS redelivered "
        "what the dead incarnation had received, and the re-issued "
        "writes were idempotent."
    )


if __name__ == "__main__":
    main()
