#!/usr/bin/env python3
"""Use case: detect and contain faulty data propagation (paper §2.2).

A miscalibrated reduction tool processes one batch of a multi-stage
pipeline.  Provenance answers the incident-response question: *which
downstream products were derived — directly or transitively — from the
bad tool's output?*  That is exactly the paper's Q4 (full descendant
closure), run here against the SimpleDB backend.

Run:  python examples/faulty_data_propagation.py
"""

from repro.cloud import CloudAccount
from repro.core import PAS3fs, ProtocolP3, collect
from repro.provenance.syscalls import TraceBuilder
from repro.query import SimpleDBQueryEngine

MOUNT = "/mnt/s3/"


def main() -> None:
    account = CloudAccount(seed=23)
    protocol = ProtocolP3(account)
    fs = PAS3fs(account, protocol)
    trace = TraceBuilder()

    # Three reduction batches; batch 1 uses the miscalibrated tool.
    for batch in range(3):
        tool = "calibrate-v2-broken" if batch == 1 else "calibrate-v1"
        reduce_pid = trace.spawn(
            tool,
            argv=[tool, f"--batch={batch}"],
            exec_path=f"/opt/tools/{tool}",
        )
        trace.read(reduce_pid, f"/local/raw/batch-{batch}.dat", 1024 * 1024)
        trace.compute(reduce_pid, 1.0)
        reduced = f"{MOUNT}pipeline/reduced-{batch}.dat"
        trace.write_close(reduce_pid, reduced, 512 * 1024)
        trace.exit(reduce_pid)

        # Downstream: per-batch analysis and a plot.
        analyze = trace.spawn(
            "analyze", argv=["analyze", reduced], exec_path="/opt/tools/analyze"
        )
        trace.read(analyze, reduced, 512 * 1024)
        trace.compute(analyze, 0.5)
        stats = f"{MOUNT}pipeline/stats-{batch}.json"
        trace.write_close(analyze, stats, 16 * 1024)
        trace.exit(analyze)

        plot = trace.spawn(
            "plot", argv=["plot", stats], exec_path="/opt/tools/plot"
        )
        trace.read(plot, stats, 16 * 1024)
        trace.compute(plot, 0.3)
        trace.write_close(plot, f"{MOUNT}pipeline/plot-{batch}.png", 64 * 1024)
        trace.exit(plot)

    # A cross-batch report that mixes everything: also contaminated.
    report = trace.spawn(
        "summarize", argv=["summarize", "--all"], exec_path="/opt/tools/summarize"
    )
    for batch in range(3):
        trace.read(report, f"{MOUNT}pipeline/stats-{batch}.json", 16 * 1024)
    trace.compute(report, 0.4)
    trace.write_close(report, f"{MOUNT}pipeline/report.pdf", 256 * 1024)
    trace.exit(report)

    fs.run(collect(trace.trace))
    fs.finalize()
    account.settle()

    engine = SimpleDBQueryEngine(account)
    tainted, stats = engine.q4_all_descendants("calibrate-v2-broken")
    print(
        f"descendants of the broken tool's output "
        f"(Q4 took {stats.elapsed_seconds:.2f}s, {stats.operations} requests):"
    )
    index, _ = engine.q1_all_provenance()
    for ref in tainted:
        names = index.attributes(ref).get("name", ["?"])
        print(f"  {ref}  ->  {names[0]}")

    names = {index.attributes(r).get("name", ["?"])[0] for r in tainted}
    assert f"{MOUNT}pipeline/report.pdf" in names, "cross-batch report must be tainted"
    assert f"{MOUNT}pipeline/plot-0.png" not in names, "batch 0 must be clean"
    print("\nbatch 1's products and the cross-batch report are tainted;")
    print("batches 0 and 2 are provably clean — no blanket recall needed.")


if __name__ == "__main__":
    main()
