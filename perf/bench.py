"""The repo benchmark: one workload per invocation.

    python3 perf/bench.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Every workload is a closed loop with one client (callers wait for their
reply).  Inputs are generated from ``--seed`` before the clock starts.  A
run is: the set-up, two to five times over; one
untimed warm-up repetition; then repetitions of a fixed size until
``--seconds`` of timed work have been measured; the output checks; and the
set-up again, as many times (``setup_s`` is the median of them all).
``--trace 0`` prints the end-to-end metrics with tracing off.  ``--trace
1`` measures half the time untraced and half with the wrappers of
``tracing.py`` installed, prints the per-layer metrics and writes the
spans to ``perf/out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check failed.  ``BENCHMARK.json`` at the root of
the repo declares the workloads, metrics, units and regression bounds;
``README.md`` here explains them.  This benchmark claims no gain.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: The seed a run uses when none is given, and the held-out seed that
#: the smoke test and every acceptance comparison also run, so that a
#: workload tuned on one seed fails early.
DEFAULT_SEED = 0
HELD_OUT_SEED = 20100223

#: Set-ups are timed in two phases, before the measurement and after it
#: (the box's speed drifts within a run; the heap is small both times).
#: Each phase makes at least two, and a cheap set-up is repeated, up to
#: five times, until half a second has been spent.
SETUP_ROUNDS = (2, 5)
SETUP_PHASE_S = 0.5
MIN_REPS = 3

#: ``(name, unit, better)``; ``BENCHMARK.json`` adds the bounds.  All but
#: ``setup_s`` repeat exactly for one seed.  Wall-clock throughput and
#: latency do not repeat within a tenth on a shared box, so they carry no
#: bound: they are the ``client.*`` per-layer metrics (see ``README.md``).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("virtual_s_per_op", "vs", "lower"),
    ("usd_per_kop", "usd", "lower"),
    ("cloud_ops_per_op", "count", "lower"),
    ("cloud_bytes_per_op", "bytes", "lower"),
    ("space_per_user_byte", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


#: Name -> module, class and leading arguments of the workload; the rest
#: of the constructor is ``(seed, smoke, out_dir)``.  Imported on demand:
#: the modules import the program under test.
WORKLOADS = {
    "select-read-sim": ("wl_select", "SelectReadSim", ()),
    "gateway-ingest-sim": ("wl_gateway", "GatewayIngest", ("sim",)),
    "gateway-ingest-local": ("wl_gateway", "GatewayIngest", ("local",)),
    "p3-fleet-sim": ("wl_p3", "P3FleetSim", ()),
    "http-mixed-local": ("wl_http", "HttpMixedLocal", ()),
}


def measure(workload, tracer, seconds, first_index, min_reps, **kwargs):
    """Repetitions until ``seconds`` of timed work have been measured."""
    reps = []
    while len(reps) < min_reps or sum(rep.wall_s for rep in reps) < seconds:
        reps.append(workload.repetition(first_index + len(reps), tracer, **kwargs))
    return reps


def timed_setups(make, rounds):
    """One phase of set-ups; returns their seconds and the last workload."""
    least, most = rounds
    seconds, workload = [], None
    while len(seconds) < least or (
        len(seconds) < most and sum(seconds) < SETUP_PHASE_S
    ):
        if workload is not None:
            workload.close()
            workload = None  # freed before the next one is built
        started = time.perf_counter()
        workload = make()
        workload.setup()
        seconds.append(time.perf_counter() - started)
    return seconds, workload


def ops_per_s(reps) -> float:
    return statistics.median(rep.ops / rep.wall_s for rep in reps)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups, first, rss_mb):
    """The bounded metrics.  Virtual time, dollars, operations, bytes,
    space and memory are read off the first timed repetition — a fixed
    amount of work — so they do not depend on how many repetitions the
    run had time for."""
    virtual_s, usd, cloud_ops, cloud_bytes = first.cloud
    return {
        "setup_s": statistics.median(setups),
        "virtual_s_per_op": virtual_s / first.ops,
        "usd_per_kop": usd / first.ops * 1000.0,
        "cloud_ops_per_op": cloud_ops / first.ops,
        "cloud_bytes_per_op": cloud_bytes / first.ops,
        "space_per_user_byte": first.store_bytes / first.user_bytes,
        "peak_rss_mb": rss_mb,
    }


def client_side(workload, reps):
    """Wall-clock throughput and latency as the one client sees them."""
    from common import percentile

    latencies = [ms for rep in reps for ms in rep.latencies_ms]
    return {
        "client.ops_per_s": ops_per_s(reps),
        "client.op_p50_ms": percentile(latencies, 0.50),
        "client.op_tail_ms": percentile(latencies, workload.tail),
    }, len(latencies)


def per_layer(workload, seconds):
    """The traced run: untraced repetitions, then traced ones, then (local
    workloads) the same input on the sim backend, then the output checks.
    Returns the per-layer metrics, every repetition, and the checks."""
    from layers import APPLY_SPANS, layer_metrics, share_table
    from tracing import NullTracer, Tracer, install

    untraced = measure(workload, NullTracer(), seconds / 2, 1, 1)
    tracer = Tracer()
    install(tracer)
    reps = measure(workload, tracer, seconds / 2, 1, 1)
    totals, traced_counts = tracer.totals(), dict(tracer.counts)
    twin_apply_s = None
    if workload.backend == "local":
        # What the applies cost without sqlite and the filesystem underneath.
        mark = len(tracer.spans)
        measure(workload, tracer, 0, 1, len(reps), backend="sim")
        twin = tracer.totals(start=mark)
        twin_apply_s = sum(twin[name][1] for name in APPLY_SPANS if name in twin)

    # The checks may take counts of their own (a store closed only once).
    checks, failed_checks, counts = workload.check()
    samples = {}
    for rep in reps:
        for key, value in rep.counts.items():
            counts[key] = counts.get(key, 0) + value
        for key, values in rep.samples.items():
            samples.setdefault(key, []).extend(values)
    op_names = sorted(tracer.op_names)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    tracer.write(path)
    print(f"traced {len(reps)} repetitions, {len(tracer.spans)} spans -> {path}")
    print("\n".join(share_table(totals, op_names)))
    values = layer_metrics(
        totals, op_names, traced_counts, counts, samples, len(reps),
        1.0 - ops_per_s(reps) / ops_per_s(untraced), twin_apply_s,
        client_side(workload, untraced)[0],
    )
    return values, untraced + reps, checks, failed_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="about 1%% of the size, for the smoke test; numbers mean nothing",
    )
    args = parser.parse_args(argv)

    module, cls, leading = WORKLOADS[args.workload]
    try:
        factory = getattr(importlib.import_module(module), cls)
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    from layers import PER_LAYER
    from tracing import NullTracer

    def make():
        return factory(*leading, args.seed, args.smoke, OUT_DIR)

    os.makedirs(OUT_DIR, exist_ok=True)
    rounds = (1, 1) if args.smoke else SETUP_ROUNDS
    setups, workload = timed_setups(make, rounds)
    try:
        print(f"{workload.name} seed={args.seed}: {workload.describe()}")
        workload.repetition(0, NullTracer())  # warm-up, untimed
        if args.trace:
            values, reps, checks, failed_checks = per_layer(workload, args.seconds)
            declared = PER_LAYER
        else:
            reps = [workload.repetition(1, NullTracer())]
            rss_mb = peak_rss_mb()
            reps += measure(
                workload, NullTracer(), args.seconds - reps[0].wall_s, 2,
                MIN_REPS - 1,
            )
            checks, failed_checks, _counts = workload.check()
            wall, samples = client_side(workload, reps)
            print(
                f"{len(reps)} timed repetitions, {samples} latency samples, "
                f"tail = p{workload.tail * 100:g}; wall clock, not bounded:"
            )
            for name, value in wall.items():
                print(f"  {name:45s} {value:16.6f}")
    finally:
        workload.close()
    if not args.trace:
        del workload
        more, spare = timed_setups(make, rounds)
        spare.close()
        values, declared = end_to_end(setups + more, reps[0], rss_mb), END_TO_END

    for name, unit, _better in declared:
        print(f"  {name:45s} {values[name]:16.6f} {unit}")
    attempted = sum(rep.ops for rep in reps) + checks
    failed = sum(rep.failed for rep in reps) + failed_checks
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in declared
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
