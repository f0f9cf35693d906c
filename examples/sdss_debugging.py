#!/usr/bin/env python3
"""Use case: debugging experimental results (paper §2.2, SDSS scenario).

Administrators silently upgrade the JVM on the compute image; a user's
script starts producing flawed output.  Without provenance the user
searches for clues by hand; with provenance, diffing the new output's
ancestry against an older run's makes the change jump out.

Run:  python examples/sdss_debugging.py
"""

from repro.cloud import CloudAccount
from repro.core import PAS3fs, ProtocolP2, collect
from repro.provenance.syscalls import TraceBuilder
from repro.query import SimpleDBQueryEngine

MOUNT = "/mnt/s3/"


def run_pipeline(trace: TraceBuilder, run_id: int, jvm: str) -> str:
    """One SDSS reduction run: a JVM-hosted reducer produces a catalog."""
    out = f"{MOUNT}sdss/run-{run_id}/catalog.fits"
    pid = trace.spawn(
        "java",
        argv=["java", "-jar", "reduce.jar", f"--run={run_id}"],
        env=(("JAVA_HOME", jvm), ("SDSS_CAL", "/opt/sdss/cal-2009.11")),
        exec_path=f"{jvm}/bin/java",
    )
    trace.read(pid, "/local/sdss/imaging-camera.raw", 8 * 1024 * 1024)
    trace.read(pid, "/local/sdss/photometric-telescope.raw", 2 * 1024 * 1024)
    trace.compute(pid, 3.0)
    trace.write_close(pid, out, 4 * 1024 * 1024)
    trace.exit(pid)
    return out


def main() -> None:
    account = CloudAccount(seed=11)
    protocol = ProtocolP2(account)
    fs = PAS3fs(account, protocol)

    trace = TraceBuilder()
    # Run 1: the good output, on the old JVM.
    good = run_pipeline(trace, 1, "/opt/jvm-1.5.0_11")
    # ... administrators upgrade the image between runs ...
    # Run 2: the flawed output, on the silently upgraded JVM.
    bad = run_pipeline(trace, 2, "/opt/jvm-1.6.0_03")

    fs.run(collect(trace.trace))
    fs.finalize()
    account.settle()

    engine = SimpleDBQueryEngine(account)
    index, _ = engine.q1_all_provenance()

    def ancestry_attributes(path):
        """Merge the attributes of an output's full ancestor closure —
        the per-process argv/env live on the ancestor process nodes."""
        merged = {}
        targets = [r for r in index.find("name", path)]
        for target in targets:
            for ref in {target} | index.ancestors(target):
                for key, values in index.attributes(ref).items():
                    merged.setdefault(key, set()).update(values)
        return merged

    good_prov = ancestry_attributes(good)
    bad_prov = ancestry_attributes(bad)

    print("provenance diff between the good and the flawed catalog's ancestry:")
    differences = 0
    for key in sorted(set(good_prov) | set(bad_prov)):
        # Dependency references always differ run-to-run; environment,
        # arguments, and executables are where configuration drift shows.
        if key in ("input", "version-of", "forkparent", "sha1", "object", "pid"):
            continue
        old = good_prov.get(key, set())
        new = bad_prov.get(key, set())
        if old != new:
            differences += 1
            print(f"  {key}:")
            for value in sorted(old - new):
                print(f"    - {value}")
            for value in sorted(new - old):
                print(f"    + {value}")
    assert differences > 0, "the JVM upgrade must be visible in the ancestry"
    print(f"\n{differences} attribute(s) changed between runs — the JVM"
          " upgrade is immediately visible, exactly the paper's scenario.")


if __name__ == "__main__":
    main()
