#!/usr/bin/env python3
"""Timeline export: a crash+respawn chaos run as a Perfetto timeline.

Every kernel run records telemetry on the virtual clock: process slices
per charged resume, ``fault.*`` instants for every schedule action,
record-lifecycle spans for each P3 transaction, and scraped metric
series.  This walkthrough runs a small fleet under a recurring
daemon-crash schedule and exports the whole run as Chrome trace-event
JSON — load the output at https://ui.perfetto.dev (or
``chrome://tracing``) and read it like a flight recorder:

* one lane per process *incarnation* — the killed ``pool-0`` and its
  respawned ``pool-0#1`` sit side by side;
* the ``faults`` lane carries full-height markers at every kill,
  respawn, and degradation edge;
* each transaction is an async span from client emit to visibility,
  with ticks at ``wal.logged``, ``daemon.dequeue``, ``commit.done``, …;
* counter tracks chart queue depth, commits, and billing over time.

The run is deterministic, so the artifacts
(``bench-results/TRACE_chaos_crash_respawn.json`` and the JSONL event
log next to it) regenerate byte-identically from the same seed.

Run:  PYTHONPATH=src python examples/timeline_export.py
"""

import os

from repro.cloud.account import CloudAccount
from repro.obs import write_chrome_trace
from repro.workloads.fleet import P3FleetRun, make_fleet

SEED = 0
CLIENTS = 2
FILES_PER_CLIENT = 3
CRASH_EVERY_S = 15.0
TRACE_PATH = "bench-results/TRACE_chaos_crash_respawn.json"
EVENTS_PATH = "bench-results/EVENTS_chaos_crash_respawn.jsonl"


def main() -> None:
    account = CloudAccount(seed=SEED)
    # ``P3FleetRun``'s static pool respawns ``pool-0`` after every kill.
    account.faults.schedule.crash_every(
        "pool-0", every_s=CRASH_EVERY_S, start_at=8.0
    )
    fleet = make_fleet(
        clients=CLIENTS, files_per_client=FILES_PER_CLIENT,
        file_bytes=16 * 1024, extra_attributes=8, seed=SEED,
    )
    run = P3FleetRun(account, fleet, daemons=1, readers=0, seed=SEED)
    run.drain()

    crashes = account.telemetry.events.of_kind("fault.crash")
    respawns = account.telemetry.events.of_kind("fault.respawn")
    lags = dict(account.telemetry.tracer.commit_lags())

    os.makedirs(os.path.dirname(TRACE_PATH), exist_ok=True)
    trace_path = write_chrome_trace(account.telemetry, TRACE_PATH)
    events_path = account.telemetry.events.write_jsonl(EVENTS_PATH)

    print(f"committed {run.committed} transactions across "
          f"{len(run.daemons)} daemon incarnation(s)")
    print(f"chaos: {len(crashes)} kills, {len(respawns)} respawns")
    for event in crashes:
        print(f"  t={event.t:8.3f}s  fault.crash    "
              f"{event['target']}#{event['incarnation']}")
    for event in respawns:
        print(f"  t={event.t:8.3f}s  fault.respawn  "
              f"{event['target']}#{event['incarnation']}")
    worst = max(lags.values()) if lags else 0.0
    print(f"trace-derived commit lag: {len(lags)} spans, "
          f"worst {worst:.3f}s")
    print(f"timeline:  {trace_path}  (load at https://ui.perfetto.dev)")
    print(f"event log: {events_path}")


if __name__ == "__main__":
    main()
