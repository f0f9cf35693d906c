"""Chaos schedules and SLO sizing — the fault-schedule scenario family.

Beyond the paper: §4.3.3's recovery argument ("if the machine running
the daemon crashes, any other machine can run a daemon against the same
queue and finish the job") is exercised here as a *schedule*, not a
single staged crash: the commit daemon is killed on a recurring beat and
respawned as a fresh process resuming from the SQS WAL mid-run, a
degradation window stretches every request and arms duplicate delivery,
and query-side readers measure read-your-writes staleness while the
fleet writes.  The headline invariant: a crashed-and-respawned run ends
with Q1-Q4 answers (and the billing of running them) byte-identical to
the uncrashed run — the WAL, not any daemon's memory, is the authority.

The sweep also answers the sizing question the ROADMAP poses: how many
daemons hold the p99 commit lag under the SLO at each fleet size and
fault schedule (the drain knee).
"""

from repro.bench.experiments import CHAOS_SCHEDULES, chaos_slo_experiment
from repro.bench.reporting import write_bench_json

SLO_P99_S = 30.0
#: sha256 of the sweep's sorted-key telemetry section, less the
#: interpreter gauges (``conftest.INTERPRETER_GAUGES``).
TELEMETRY_SHA256 = (
    "b5a210519e4f16fec93fa3b31e98d7fe01a4a17f27b24a66d9b1637343802a32"
)


def test_chaos_slo_sweep(once, benchmark, golden, telemetry_digest):
    result = once(
        benchmark,
        chaos_slo_experiment,
        fleet_sizes=(2, 4),
        daemon_counts=(1, 2),
        schedules=CHAOS_SCHEDULES,
        slo_p99_s=SLO_P99_S,
        seed=0,
    )
    print("\n" + result.render())
    print(
        "results json:",
        write_bench_json(
            "chaos_slo", result.as_json(), telemetry=result.telemetry
        ),
    )

    # Frozen: every point, the SLO table and the invariant byte for
    # byte, and every run's final metrics snapshot by digest.
    golden("chaos_slo", result.as_json())
    assert telemetry_digest(result.telemetry) == TELEMETRY_SHA256

    points = {
        (p.clients, p.daemons, p.schedule): p for p in result.points
    }
    assert len(points) == 12  # full 2 x 2 x 3 sweep, no dropped runs

    # Recovery: every transaction committed under every schedule — the
    # recurring kills, respawns, and degradation windows cost lag, never
    # provenance.
    assert all(p.committed == p.flushes for p in result.points)

    # The chaos recovery invariant: crashed+respawned runs end with
    # Q1-Q4 answers and query billing byte-identical to uncrashed runs.
    assert result.recovery_identical

    # The p99 commit-lag table reproduces from record-lifecycle traces:
    # the wal.logged -> commit.done spans are an independent derivation
    # from the daemons' commit-log bookkeeping, and they agree exactly —
    # per-transaction lags and therefore every percentile.
    for point in result.points:
        assert point.trace_lags_match
        assert point.lag_p99_trace_s == point.lag_p99_s

    # The chaos actually happened: recurring crashes fired repeatedly
    # and every kill was answered by a fresh-daemon respawn.
    for point in result.points:
        if point.schedule == "crashes":
            assert point.crashes_fired >= 2
            assert point.respawns == point.crashes_fired

    # The drain knee: with the fleet fixed and no faults, a second
    # daemon lowers the p99 commit lag at the largest fleet.
    assert (
        points[(4, 2, "steady")].lag_p99_s
        < points[(4, 1, "steady")].lag_p99_s
    )

    # Chaos costs capacity: under recurring daemon crashes the p99 lag
    # is strictly worse than steady at the same fleet and daemon count.
    for clients in (2, 4):
        for daemons in (1, 2):
            assert (
                points[(clients, daemons, "crashes")].lag_p99_s
                > points[(clients, daemons, "steady")].lag_p99_s
            )

    # The SLO table is internally consistent with the swept points.
    for (clients, schedule), daemons in result.daemons_for_slo.items():
        if daemons is None:
            assert all(
                points[(clients, d, schedule)].lag_p99_s > SLO_P99_S
                for d in (1, 2)
            )
        else:
            assert points[(clients, daemons, schedule)].lag_p99_s <= SLO_P99_S

    # Concurrent readers observed real read-your-writes staleness while
    # the fleet wrote, and a settled store at the end.
    for point in result.points:
        assert point.reader_samples > 0
        assert point.reader_stale_peak > 0
        assert point.reader_final_stale == 0

    # Determinism contract: same seed, same sweep => identical BENCH
    # JSON, bit for bit.
    replay = chaos_slo_experiment(
        fleet_sizes=(2, 4),
        daemon_counts=(1, 2),
        schedules=CHAOS_SCHEDULES,
        slo_p99_s=SLO_P99_S,
        seed=0,
    )
    assert replay.as_json() == result.as_json()
    assert replay.telemetry == result.telemetry
