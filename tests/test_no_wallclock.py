"""Lint: the simulator never reads the host clock.

Every number the suite reports must be a pure function of the seed, so
``src/repro/`` code may only see time through the account's
:class:`~repro.cloud.clock.VirtualClock`.  This test greps the tree for
host-clock reads (``time.time``, ``time.monotonic``,
``time.perf_counter``, ``datetime.now``, …) and fails on any hit.  There
is no exemption: host-clock measurement of the simulator itself belongs
to ``perf/``, outside ``src/``.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Host-clock reads (and sleeps) that would break virtual-time purity.
FORBIDDEN = re.compile(
    r"time\.time\(|time\.monotonic\(|time\.perf_counter\(|"
    r"time\.process_time\(|time\.sleep\(|"
    r"datetime\.now\(|datetime\.utcnow\(|datetime\.today\("
)


def test_no_wallclock_reads_in_simulator_source():
    violations = [
        f"{path.relative_to(SRC.parent.parent)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if FORBIDDEN.search(line)
    ]
    assert not violations, "host-clock use in src/repro/:\n" + "\n".join(
        violations
    )
