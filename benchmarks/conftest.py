"""Shared fixtures for the benchmark suite.

Every benchmark runs its experiment exactly once (pedantic mode): the
simulator is deterministic, so repeated rounds measure nothing but
Python's own wall-time jitter, and the heavy experiments replay hundreds
of megabytes of simulated traffic.
"""

import hashlib
import json
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: How many differing leaves a drifted golden's failure message lists.
DRIFT_SHOWN = 20


def golden_drift(expected, actual, path="$"):
    """Every JSON path where ``actual`` differs from ``expected``, as
    ``"<path>: <old> -> <new>"`` lines in key order; a key present on one
    side only reads ``<missing>`` on the other."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines = []
        for key in sorted(set(expected) | set(actual)):
            lines.extend(golden_drift(
                expected.get(key, "<missing>"), actual.get(key, "<missing>"),
                f"{path}.{key}",
            ))
        return lines
    if (
        isinstance(expected, list) and isinstance(actual, list)
        and len(expected) == len(actual)
    ):
        return [
            line
            for index, (old, new) in enumerate(zip(expected, actual))
            for line in golden_drift(old, new, f"{path}[{index}]")
        ]
    if expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: {expected!r} -> {actual!r}"]


def assert_golden(name, results):
    """Assert ``results`` serialize byte for byte to ``golden/<name>.json``
    (the ``results`` section of ``BENCH_<name>.json``: every float in
    its shortest round-trip form, so the last bit counts).  A drift
    names the first :data:`DRIFT_SHOWN` differing paths, old -> new."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        expected = fh.read()
    actual = json.dumps(results, indent=2, sort_keys=True) + "\n"
    if actual == expected:
        return
    drift = golden_drift(json.loads(expected), json.loads(actual))
    shown = "\n".join(drift[:DRIFT_SHOWN])
    more = len(drift) - DRIFT_SHOWN
    raise AssertionError(
        f"{name} drifted from benchmarks/golden/{name}.json "
        f"in {len(drift)} place(s):\n{shown}"
        + (f"\n... and {more} more" if more > 0 else "")
    )


#: Gauges that measure the interpreter rather than the run:
#: ``sdb.index.memory_bytes`` sums ``sys.getsizeof`` over the index, and
#: object sizes differ between CPython versions.  The digest leaves them out.
INTERPRETER_GAUGES = frozenset({"sdb.index.memory_bytes"})


def _without_interpreter_gauges(node):
    """``node`` with every :data:`INTERPRETER_GAUGES` key (labelled or
    not) dropped from every snapshot, at any depth."""
    if not isinstance(node, dict):
        return node
    return {
        key: _without_interpreter_gauges(value)
        for key, value in node.items()
        if key.split("{", 1)[0] not in INTERPRETER_GAUGES
    }


def telemetry_sha256(telemetry):
    """sha256 of a BENCH ``telemetry`` section with sorted keys — the
    per-run metrics snapshots a sweep's golden does not hold — less the
    :data:`INTERPRETER_GAUGES`."""
    from repro.bench.reporting import telemetry_section

    section = telemetry_section(_without_interpreter_gauges(telemetry))
    text = json.dumps(section, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def once():
    return run_once


@pytest.fixture
def golden():
    return assert_golden


@pytest.fixture
def telemetry_digest():
    return telemetry_sha256
