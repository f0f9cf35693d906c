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
"""

import json
import os

from repro.bench.experiments import (
    AUTOSCALE_MODES,
    AUTOSCALE_SCHEDULES,
    autoscale_slo_experiment,
)
from repro.bench.reporting import write_bench_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SLO_P99_S = 30.0
#: sha256 of the sweep's sorted-key telemetry section, less the
#: interpreter gauges (``conftest.INTERPRETER_GAUGES``).
TELEMETRY_SHA256 = (
    "5c19cec320d62811d225ef9aec0d4836de1ebbd69cae1221cf2745df52a9617f"
)


def _golden_chaos():
    with open(os.path.join(GOLDEN_DIR, "chaos_slo.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_autoscale_slo_sweep(once, benchmark, golden, telemetry_digest):
    fleets = (2, 4)
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

    # Frozen: every point and headline byte for byte, every run's final
    # metrics snapshot by digest.
    golden("autoscale_slo", result.as_json())
    assert telemetry_digest(result.telemetry) == TELEMETRY_SHA256

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

    # Cross-check against the chaos sweep's golden: its SLO table calls
    # the same (fleet, crashes) cells unreachable for every static count.
    chaos = _golden_chaos()
    null_crash_fleets = {
        row["clients"]
        for row in chaos["daemons_for_slo"]
        if row["schedule"] == "crashes" and row["daemons"] is None
    }
    assert null_crash_fleets
    for clients in null_crash_fleets:
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


def test_static_cells_are_the_chaos_configuration():
    """Every golden ``static-N`` point equals the golden chaos point at
    ``daemons=N`` (same fleet, same schedule) on every field the two
    points share: a static pool is the chaos sweep's run."""
    with open(
        os.path.join(GOLDEN_DIR, "autoscale_slo.json"), encoding="utf-8"
    ) as fh:
        autoscale = json.load(fh)
    chaos = {
        (p["clients"], p["daemons"], p["schedule"]): p
        for p in _golden_chaos()["points"]
    }
    static = [p for p in autoscale["points"] if p["mode"].startswith("static-")]
    assert len(static) == 8
    for point in static:
        daemons = int(point["mode"].split("-", 1)[1])
        twin = chaos[(point["clients"], daemons, point["schedule"])]
        shared = point.keys() & twin.keys()
        assert len(shared) >= 12
        assert {k: point[k] for k in shared} == {k: twin[k] for k in shared}
