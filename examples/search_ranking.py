#!/usr/bin/env python3
"""Use case: provenance-improved search (paper §2.2, after Shah et al.).

A user archives a project to the cloud and later searches for "figures
from the kinetics experiment".  Content search alone finds the notebook
that mentions "kinetics" — but the figures themselves are binary PNGs
with no matching text.  Spreading weight across the provenance graph
surfaces them, because they were *derived from* the matching notebook's
pipeline.

Run:  python examples/search_ranking.py
"""

from repro.cloud import CloudAccount
from repro.core import PAS3fs, ProtocolP2, collect
from repro.provenance.syscalls import TraceBuilder
from repro.query import SimpleDBQueryEngine, provenance_ranked_search

MOUNT = "/mnt/s3/"


def main() -> None:
    account = CloudAccount(seed=5)
    protocol = ProtocolP2(account)
    fs = PAS3fs(account, protocol)
    trace = TraceBuilder()

    # The kinetics pipeline: notebook -> fit -> two figures.
    fit = trace.spawn(
        "fit-kinetics", argv=["fit", "kinetics.ipynb"], exec_path="/usr/bin/fit"
    )
    notebook = f"{MOUNT}proj/kinetics.ipynb"
    trace.write_close(fit, notebook, 96 * 1024)
    trace.read(fit, notebook, 96 * 1024)
    trace.compute(fit, 0.8)
    model = f"{MOUNT}proj/kinetics-model.json"
    trace.write_close(fit, model, 4 * 1024)
    trace.exit(fit)

    plot = trace.spawn("plot", argv=["plot", model], exec_path="/usr/bin/plot")
    trace.read(plot, model, 4 * 1024)
    trace.compute(plot, 0.3)
    fig1 = f"{MOUNT}proj/rate-curve.png"
    fig2 = f"{MOUNT}proj/residuals.png"
    trace.write_close(plot, fig1, 128 * 1024)
    trace.write_close(plot, fig2, 96 * 1024)
    trace.exit(plot)

    # Unrelated clutter in the same archive.
    misc = trace.spawn("backup", argv=["backup"], exec_path="/usr/bin/backup")
    for index in range(5):
        trace.write_close(misc, f"{MOUNT}misc/photo-{index}.png", 512 * 1024)
    trace.exit(misc)

    fs.run(collect(trace.trace))
    fs.finalize()
    account.settle()

    # Fetch the provenance once (Q1) and rank locally.
    engine = SimpleDBQueryEngine(account)
    index, _ = engine.q1_all_provenance()

    # Content search: only the notebook mentions "kinetics".
    content_hits = {
        ref: 1.0
        for ref in index.refs()
        if any("kinetics" in n for n in index.attributes(ref).get("name", []))
    }
    print("content-only hits:")
    for ref in content_hits:
        print(f"  {index.attributes(ref).get('name', ['?'])[0]}")

    ranked = provenance_ranked_search(index, content_hits, iterations=3, top_k=8)
    print("\nprovenance-ranked results:")
    names = []
    for ref, weight in ranked:
        name = index.attributes(ref).get("name", ["?"])[0]
        names.append(name)
        print(f"  {weight:6.3f}  {name}")

    assert fig1 in names and fig2 in names, "figures must surface via provenance"
    assert f"{MOUNT}misc/photo-0.png" not in names[:4], "clutter stays down"
    print("\nthe binary figures surface through their derivation chain, while")
    print("unrelated archive clutter stays at the bottom — Shah's result on")
    print("cloud-stored provenance.")


if __name__ == "__main__":
    main()
