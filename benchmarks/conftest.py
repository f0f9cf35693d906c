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


def assert_golden(name, results):
    """Assert ``results`` serialize byte for byte to ``golden/<name>.json``
    (the ``results`` section of ``BENCH_<name>.json``: every float in
    its shortest round-trip form, so the last bit counts)."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        expected = fh.read()
    actual = json.dumps(results, indent=2, sort_keys=True) + "\n"
    assert actual == expected, f"{name} drifted from benchmarks/golden/{name}.json"


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
