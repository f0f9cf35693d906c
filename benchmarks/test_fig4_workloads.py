"""Figure 4 — full workload elapsed times across 12 sets.

Paper: {Sep 09, Dec 09/Jan 10} x {EC2, local} x {Blast, Nightly,
Challenge}; overheads below 10 % in 29 of 36 protocol cells, maximum
36 %; Blast runs *faster* on the local machine than under UML-on-EC2
(memory thrash), while nightly runs slower locally; Dec 09 is faster
than Sep 09.

The benchmark runs at reduced scale (the shape is scale-invariant here)
to keep wall time sensible.
"""

from repro.bench.experiments import fig4_workloads


def _cells(result):
    """Every cell's client elapsed time, operations and overhead, keyed
    ``period/environment/workload`` then configuration."""
    return {
        "/".join(key): {
            config: {
                "elapsed_seconds": cell.result.elapsed_seconds,
                "operations": cell.result.operations,
                "overhead": cell.overhead,
            }
            for config, cell in per_config.items()
        }
        for key, per_config in result.cells.items()
    }


def test_fig4_workloads(once, benchmark, golden):
    result = once(benchmark, fig4_workloads, scale=0.4)
    print("\n" + result.render())
    # All 36 protocol cells and their s3fs bases, to the last bit.
    golden("fig4_workloads", _cells(result))
    below, total = result.overhead_summary()
    print(f"\noverheads < 10%: {below} of {total} (paper: 29 of 36)")

    # Most overheads are small; none is catastrophic.
    assert below >= total // 2
    for key, per_config in result.cells.items():
        for config in ("p1", "p2", "p3"):
            assert per_config[config].overhead < 0.45, (key, config)

    # Blast: local beats UML-on-EC2 (the paper's memory-thrash anomaly).
    for period in ("sep09", "dec09"):
        uml = result.cells[(period, "uml", "blast")]["s3fs"].result
        local = result.cells[(period, "local", "blast")]["s3fs"].result
        assert local.elapsed_seconds < uml.elapsed_seconds

    # Nightly: local is slower (thin uplink dominates the tarballs).
    for period in ("sep09", "dec09"):
        uml = result.cells[(period, "uml", "nightly")]["s3fs"].result
        local = result.cells[(period, "local", "nightly")]["s3fs"].result
        assert local.elapsed_seconds > uml.elapsed_seconds

    # Dec 09 is no slower than Sep 09 anywhere.
    for (period, env, workload), per_config in result.cells.items():
        if period != "sep09":
            continue
        dec = result.cells[("dec09", env, workload)]
        for config, cell in per_config.items():
            assert (
                dec[config].result.elapsed_seconds
                <= cell.result.elapsed_seconds * 1.001
            )
