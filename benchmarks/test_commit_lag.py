"""Commit lag over virtual time — the simulation kernel's experiment.

Beyond the paper: §4.3.3 argues the commit daemon "operates
asynchronously" and excludes its time from elapsed measurements, but the
phased driver could never *show* the asynchrony.  On the kernel,
concurrent fleet clients log P3 transactions into a shared WAL queue
while in-loop commit daemons poll it; the WAL backlog curve and each
transaction's commit lag are measured on the virtual clock, and adding a
second daemon visibly shortens the drain.
"""

from repro.bench.experiments import commit_lag_experiment
from repro.bench.reporting import write_bench_json

#: sha256 of the run's sorted-key telemetry section, less the
#: interpreter gauges (``conftest.INTERPRETER_GAUGES``).
TELEMETRY_SHA256 = (
    "b63817f048ffe7fe0e5032d6b62651a647f1ad523dd3e7cd811ba5de89971c26"
)


def test_commit_lag_over_virtual_time(once, benchmark, golden, telemetry_digest):
    result = once(
        benchmark,
        commit_lag_experiment,
        clients=4,
        files_per_client=5,
        daemons=1,
        seed=0,
    )
    print("\n" + result.render())
    print(
        "results json:",
        write_bench_json(
            "commit_lag", result.as_json(), telemetry=result.telemetry
        ),
    )

    # Frozen: samples, commit timeline and histograms byte for byte,
    # the final metrics snapshot by digest.
    golden("commit_lag", result.as_json())
    assert telemetry_digest(result.telemetry) == TELEMETRY_SHA256

    # ≥ 2 concurrent clients and ≥ 1 in-loop daemon actually ran.
    assert result.clients >= 2
    assert result.daemons >= 1

    # Every logged transaction eventually committed.
    assert result.committed == result.flushes

    # The backlog was real: the queue was non-empty while clients ran,
    # and drained to empty by the end.
    assert result.max_queue_depth > 0
    assert result.samples[-1].queue_depth == 0

    # Commit lag is positive for every transaction — the daemon ran
    # *behind* the clients, which the phased driver could not express.
    assert result.lags and all(lag > 0 for lag in result.lags)

    # Determinism contract: same seed, same process set => identical
    # BENCH JSON, bit for bit.
    replay = commit_lag_experiment(
        clients=4, files_per_client=5, daemons=1, seed=0
    )
    assert replay.as_json() == result.as_json()
    assert replay.telemetry == result.telemetry


def test_second_daemon_shortens_drain(once, benchmark):
    solo = commit_lag_experiment(
        clients=4, files_per_client=4, daemons=1, seed=3
    )
    duo = once(
        benchmark,
        commit_lag_experiment,
        clients=4,
        files_per_client=4,
        daemons=2,
        seed=3,
    )
    print("\n" + duo.render())
    assert solo.committed == duo.committed == solo.flushes
    # Two daemons polling the same queue drain the same fleet sooner.
    assert duo.elapsed_seconds < solo.elapsed_seconds
