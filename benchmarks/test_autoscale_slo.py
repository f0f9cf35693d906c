"""The autoscaling supervisor closes the chaos SLO gap.

``BENCH_chaos_slo.json`` ends on a negative result: its SLO table has
``daemons: null`` rows — under recurring daemon crashes *no swept
static daemon count* holds the p99 commit lag under the SLO, because
the tail is the stock 30 s SQS visibility timeout stranding whatever a
killed daemon had received, not a lack of capacity.  This sweep runs
the same fleets and the same crash schedule three ways — ``static-1``,
``static-2`` (the chaos bench's configuration), and ``auto`` (the
supervisor control plane) — and pins the headline:

- the autoscaler meets the p99 SLO in every cell where both static
  fleets miss it (the ``null`` cells, filled);
- it does so with fewer provisioned daemon-seconds than the largest
  static pool: it grows the pool only at the largest fleet, and scales
  back down when the WAL clears;
- every crashes run still ends with Q1-Q4 answers and query billing
  byte-identical to the same-mode steady run, and the whole sweep
  (telemetry included) replays bit-for-bit from the seed.

``REPRO_AUTOSCALE_FLEETS`` (comma-separated fleet sizes) overrides the
swept fleets for CI smoke runs.
"""

import json
import os

from repro.bench.experiments import (
    AUTOSCALE_MODES,
    AUTOSCALE_SCHEDULES,
    autoscale_slo_experiment,
)
from repro.bench.reporting import write_bench_json

SLO_P99_S = 30.0


def _fleet_sizes():
    raw = os.environ.get("REPRO_AUTOSCALE_FLEETS", "")
    if raw:
        return tuple(int(part) for part in raw.split(",") if part)
    return (2, 4)


def test_autoscale_slo_sweep(once, benchmark):
    fleets = _fleet_sizes()
    result = once(
        benchmark,
        autoscale_slo_experiment,
        fleet_sizes=fleets,
        modes=AUTOSCALE_MODES,
        schedules=AUTOSCALE_SCHEDULES,
        slo_p99_s=SLO_P99_S,
        seed=0,
    )
    print("\n" + result.render())
    print(
        "results json:",
        write_bench_json(
            "autoscale_slo", result.as_json(), telemetry=result.telemetry
        ),
    )

    points = {(p.clients, p.mode, p.schedule): p for p in result.points}
    assert len(points) == len(fleets) * len(AUTOSCALE_MODES) * len(
        AUTOSCALE_SCHEDULES
    )

    # Nothing is lost to the chaos in any mode: every transaction the
    # fleet flushed is committed exactly once (the supervised pool's
    # tight lease never double-commits, and kills never drop provenance).
    assert all(p.committed == p.flushes for p in result.points)

    # The chaos recovery invariant, per mode: crashes runs end with
    # Q1-Q4 answers and query billing byte-identical to steady runs.
    assert result.recovery_identical

    # The headline: every (fleet, crashes) cell both static fleets miss
    # is met by the autoscaler — the chaos bench's null rows, filled.
    for clients in fleets:
        static_misses = all(
            not result.slo_met[(clients, "crashes", mode)]
            for mode in AUTOSCALE_MODES
            if mode.startswith("static-")
        )
        assert static_misses, (
            "expected the static fleets to miss the crash-schedule SLO "
            f"at clients={clients} (the BENCH_chaos_slo null cells)"
        )
        assert (clients, "crashes") in result.filled_cells

    # Cross-check against the committed chaos bench: its SLO table calls
    # the same (fleet, crashes) cells unreachable for every static count.
    chaos_path = os.path.join("bench-results", "BENCH_chaos_slo.json")
    if os.path.exists(chaos_path):
        with open(chaos_path, encoding="utf-8") as handle:
            chaos = json.load(handle)
        null_crash_fleets = {
            row["clients"]
            for row in chaos["results"]["daemons_for_slo"]
            if row["schedule"] == "crashes" and row["daemons"] is None
        }
        for clients in fleets:
            if clients in null_crash_fleets:
                assert (clients, "crashes") in result.filled_cells

    # Scale-down economy: in every filled cell the supervisor spent
    # fewer provisioned daemon-seconds than the largest static pool and
    # ended no larger than its peak.  A daemon that keeps receiving while
    # its stragglers wait clears a small fleet's WAL alone, so scaling
    # itself — up past the floor, then back down — is asserted where the
    # load calls for it: at the largest swept fleet.
    for clients, schedule in result.filled_cells:
        assert result.auto_cheaper[(clients, schedule)]
        auto = points[(clients, "auto", schedule)]
        assert auto.pool_end <= auto.pool_peak
        if clients == max(fleets):
            assert auto.scale_ups >= 1
            assert auto.scale_downs >= 1
            assert auto.pool_peak >= 2
            assert auto.pool_end < auto.pool_peak

    # The crash schedule actually ran in every crashes cell, and each
    # kill was answered by a respawn (flat for static, backoff for auto).
    for point in result.points:
        if point.schedule == "crashes":
            assert point.crashes_fired >= 2
            assert point.respawns >= point.crashes_fired - 1

    # The read-staleness SLO axis: concurrent Q1 readers observed real
    # read-your-writes staleness in every run.
    assert all(p.stale_p99 > 0 for p in result.points)

    # Determinism contract: same seed, same sweep => identical BENCH
    # JSON including the telemetry section, bit for bit.
    replay = autoscale_slo_experiment(
        fleet_sizes=fleets,
        modes=AUTOSCALE_MODES,
        schedules=AUTOSCALE_SCHEDULES,
        slo_p99_s=SLO_P99_S,
        seed=0,
    )
    assert replay.as_json() == result.as_json()
    assert replay.telemetry == result.telemetry
