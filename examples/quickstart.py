#!/usr/bin/env python3
"""Quickstart: store data + provenance in the (simulated) cloud.

Builds a tiny two-process pipeline, runs it through PA-S3fs with protocol
P3 (the paper's most robust protocol: S3 + SimpleDB + an SQS write-ahead
log), drains the commit daemon, and then queries the provenance back.

Run:  python examples/quickstart.py
"""

from repro.cloud import CloudAccount
from repro.core import PAS3fs, ProtocolP3, collect
from repro.provenance.syscalls import TraceBuilder
from repro.query import SimpleDBQueryEngine

MOUNT = "/mnt/s3/"


def main() -> None:
    # 1. A cloud account: virtual clock + S3 + SimpleDB + SQS + billing.
    account = CloudAccount(seed=7)

    # 2. An application: sort reads raw data and writes a sorted copy;
    #    report reads the sorted copy and writes a summary.
    trace = TraceBuilder()
    sort = trace.spawn("sort", argv=["sort", "raw.csv"], exec_path="/usr/bin/sort")
    trace.read(sort, "/local/raw.csv", 64 * 1024)
    trace.compute(sort, 0.5)
    trace.write_close(sort, f"{MOUNT}out/sorted.csv", 64 * 1024)
    report = trace.spawn(
        "report", argv=["report", "--html"], parent_pid=sort, exec_path="/usr/bin/report"
    )
    trace.read(report, f"{MOUNT}out/sorted.csv", 64 * 1024)
    trace.compute(report, 0.2)
    trace.write_close(report, f"{MOUNT}out/summary.html", 8 * 1024)

    # 3. Run it through PA-S3fs over protocol P3.
    protocol = ProtocolP3(account)
    fs = PAS3fs(account, protocol)
    result = fs.run(collect(trace.trace))
    fs.finalize()  # commit daemon drains the WAL asynchronously
    account.settle()  # let eventual consistency quiesce

    print(f"elapsed          : {result.elapsed_seconds:.1f} virtual seconds")
    print(f"cloud requests   : {result.operations}")
    print(f"bytes uploaded   : {result.bytes_transmitted}")
    print(f"bill so far      : ${account.billing.cost():.6f}")

    # 4. Query the provenance: what produced summary.html?
    engine = SimpleDBQueryEngine(account)
    attributes, stats = engine.q2_object_provenance(f"{MOUNT}out/summary.html")
    print(f"\nprovenance of summary.html (query took {stats.elapsed_seconds:.3f}s):")
    for attribute in sorted(attributes):
        for value in attributes[attribute]:
            print(f"  {attribute:12s} = {value[:70]}")

    outputs, _ = engine.q3_direct_outputs("sort")
    print(f"\nfiles directly output by 'sort': {[str(r) for r in outputs]}")


if __name__ == "__main__":
    main()
