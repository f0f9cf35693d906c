"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py <dir A> <dir B>

Each directory holds the results of one ``sweep.py`` run; A is the
parent (or the first of two runs of one commit), B the change.  One row
per workload x metric found in the results (end-to-end metrics from
``--trace 0`` sets, per-layer ones from ``--trace 1`` sets): both medians
with their quartiles, the bound from ``BENCHMARK.json`` and a verdict:

  worse       B's median is worse than A's by more than the bound
              (with a spread wider than the bound: only when every run of
              B also reads worse than every run of A)
  unresolved  the run-to-run spread of either side is wider than the
              bound, so a difference of that size could not be seen —
              unless every run of B reads better than every run of A
  better      B wins at least nine tenths of the seeds both sides ran
              (ties count for neither) and the medians differ by more
              than the distance between A's quartiles
  same        none of the above

A per-layer metric has no bound: it reads ``better`` or ``worse`` by the
nine-tenths rule alone, else ``same``.  The exit code is non-zero when
any row reads ``worse``.  Two sets of one commit must compare without
``worse`` and without ``unresolved``.
"""

from __future__ import annotations

import sys

from sweep import load_set, manifest, quartiles, spread


def verdict(a: dict, b: dict, better: str, bound) -> str:
    """``a`` and ``b`` map seed -> value of one metric on one workload;
    ``bound`` is ``None`` for a metric that has none."""
    sign = 1.0 if better == "lower" else -1.0  # so that larger is worse
    runs_a, runs_b = list(a.values()), list(b.values())
    q1_a, median_a, q3_a = quartiles(runs_a)
    median_b = quartiles(runs_b)[1]
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    widest = max(spread(runs_a), spread(runs_b))
    apart_better = max(sign * v for v in runs_b) < min(sign * v for v in runs_a)
    apart_worse = min(sign * v for v in runs_b) > max(sign * v for v in runs_a)
    if bound is not None:
        if worse_by > bound:
            return "worse" if widest <= bound or apart_worse else "unresolved"
        if widest > bound and not apart_better:
            return "unresolved"
    paired = [(a[seed], b[seed]) for seed in a if seed in b]
    wins = sum(1 for x, y in paired if sign * y < sign * x)
    losses = sum(1 for x, y in paired if sign * y > sign * x)
    if paired and abs(median_b - median_a) > q3_a - q1_a:
        if wins >= 0.9 * len(paired):
            return "better"
        if bound is None and losses >= 0.9 * len(paired):
            return "worse"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    spec = manifest()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    verdicts = []
    print(
        f"{'workload':22s} {'metric':40s} {'A q1':>12s} {'A median':>12s} "
        f"{'A q3':>12s} {'B q1':>12s} {'B median':>12s} {'B q3':>12s} "
        f"{'bound':>6s}  verdict"
    )
    for workload in set_a:
        if workload not in set_b:
            print(f"{workload}: missing from {argv[1]}")
            verdicts.append("worse")
            continue
        for name in next(iter(set_a[workload].values())):
            a = {seed: run[name] for seed, run in set_a[workload].items()}
            b = {seed: run[name] for seed, run in set_b[workload].items()}
            bound = declared[name].get("bound")
            result = verdict(a, b, declared[name]["better"], bound)
            verdicts.append(result)
            cells = "".join(
                f" {value:12.5f}"
                for value in (*quartiles(list(a.values())), *quartiles(list(b.values())))
            )
            print(
                f"{workload:22s} {name:40s}{cells} "
                f"{'' if bound is None else format(bound, '6.3f'):>6s}  {result}"
            )
    print(", ".join(
        f"{verdicts.count(kind)} {kind}"
        for kind in ("better", "same", "worse", "unresolved")
    ))
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
