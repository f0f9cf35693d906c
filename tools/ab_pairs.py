"""Alternating parent/change pairs of the repo benchmark.

    python3 tools/ab_pairs.py <parent ref | parent checkout>
                              [--seeds 1-10,20100223] [--workloads W ...]
                              [--out perf/out/ab] [--seconds S] [--trace 0|1]

The protocol a performance change is held to (perf/README.md, *Run-to-run
spread*): the parent commit and the working tree are measured with the
same benchmark settings, seed by seed, alternating which side runs
first, and the two result sets are compared with ``perf/compare.py``.

A parent given as a git ref is checked out as a ``git worktree`` under
``<out>`` and removed afterwards; a directory (a ``git archive`` of the
parent, say) is used as it is.  Each side runs its own ``perf/sweep.py``
from its own checkout — one seed per call — into ``<out>/parent`` and
``<out>/change``; the last thing printed is ``perf/compare.py`` over
the two, and its exit code (non-zero on any ``worse``) is this one's.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perf"))

from sweep import parse_seeds  # noqa: E402 - perf/ is not a package


def sweep_one_seed(checkout: str, out: str, seed: int, args) -> bool:
    command = [
        sys.executable, os.path.join(checkout, "perf", "sweep.py"),
        "--out", out, "--seeds", str(seed), "--trace", args.trace,
    ]
    if args.seconds is not None:
        command += ["--seconds", args.seconds]
    if args.workloads:
        command += ["--workloads", *args.workloads]
    done = subprocess.run(
        command, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    if done.returncode != 0:
        print(done.stdout)
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "parent", help="git ref of the parent commit, or a checkout of it"
    )
    parser.add_argument("--seeds", default="1-10,20100223")
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--out", default=os.path.join(ROOT, "perf", "out", "ab"))
    parser.add_argument("--seconds", help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    out = os.path.abspath(args.out)
    results = {side: os.path.join(out, side) for side in ("parent", "change")}
    for directory in results.values():
        if os.path.isdir(directory) and os.listdir(directory):
            parser.error(f"{directory} already holds results; pick another --out")
    os.makedirs(out, exist_ok=True)
    worktree = None
    if os.path.isdir(args.parent):
        parent = os.path.abspath(args.parent)
    else:
        parent = worktree = tempfile.mkdtemp(prefix="parent-worktree-", dir=out)
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--force", worktree, args.parent],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
    sides = {"parent": parent, "change": ROOT}
    failed = 0
    try:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                ok = sweep_one_seed(sides[side], results[side], seed, args)
                failed += not ok
                print(f"seed {seed} {side}: {'ok' if ok else 'FAILED'}", flush=True)
    finally:
        if worktree is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", worktree],
                cwd=ROOT, check=True,
            )
    compared = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "compare.py"),
         results["parent"], results["change"]],
    )
    return 1 if failed else compared.returncode


if __name__ == "__main__":
    sys.exit(main())
