"""Run the benchmark over workloads x seeds and keep every result.

    python3 perf/sweep.py --out perf/out/a [--seeds 1-10] [--workloads W ...]
                          [--seconds S] [--trace 0|1]

One ``bench.py`` process per workload and seed, run one after another;
the last line each prints is saved to ``<out>/<workload>.seed<N>.json``.
Then, per workload and metric, the median over the seeds and the spread
(distance between the first and third quartile as a share of the median)
are printed beside the metric's bound from ``BENCHMARK.json``.  Two such
sets are compared with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def manifest() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_set(directory: str) -> dict:
    """``{workload: {seed: {metric: value}}}`` from a directory of results."""
    out: dict = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, seed = name[: -len(".json")].rsplit(".seed", 1)
        with open(os.path.join(directory, name)) as handle:
            result = json.load(handle)
        out.setdefault(workload, {})[int(seed)] = {
            metric: entry["value"] for metric, entry in result["metrics"].items()
        }
    return out


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    spec = manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the results")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,20100223")
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    wrong = 0
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "bench.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                wrong += 1
                print(f"{workload} seed {seed}: exit code {done.returncode}")
                print(done.stdout)
                continue
            path = os.path.join(args.out, f"{workload}.seed{seed}.json")
            with open(path, "w") as handle:
                handle.write(lines[-1] + "\n")
            print(f"{workload} seed {seed}: ok", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':22s} {'metric':22s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for workload, by_seed in load_set(args.out).items():
        for metric in next(iter(by_seed.values())):
            values = [run[metric] for run in by_seed.values()]
            bound = bounds.get(metric)
            note = ""
            if bound is not None and metric != "setup_s" and spread(values) > bound:
                note = "  SPREAD ABOVE BOUND"
            print(
                f"{workload:22s} {metric:22s} {quartiles(values)[1]:14.6f} "
                f"{spread(values):8.4f} "
                f"{'' if bound is None else format(bound, '6.3f')}{note}"
            )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
