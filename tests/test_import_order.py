"""Every ``repro`` package and module imports first, in a fresh interpreter.

Tier-1 runs in one process whose ``tests/conftest.py`` imports
``repro.cloud`` before anything else, so an import cycle that only bites
when another module is imported first never shows there.  This test
starts one interpreter per module and imports only that module.
"""

import os
import pathlib
import subprocess
import sys

import repro

PACKAGE = pathlib.Path(list(repro.__path__)[0])
#: The directory ``repro`` is imported from, for the child interpreters.
SRC = str(PACKAGE.parent)
#: Child interpreters alive at once.
CONCURRENCY = 4


def _module_names():
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def _start(name):
    return subprocess.Popen(
        [sys.executable, "-c", f"import {name}"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_every_module_imports_first_in_a_fresh_interpreter():
    names = _module_names()
    assert "repro.backends" in names and "repro.backends.parity" in names
    failures = []
    for start in range(0, len(names), CONCURRENCY):
        batch = [(name, _start(name)) for name in names[start : start + CONCURRENCY]]
        for name, child in batch:
            _, stderr = child.communicate(timeout=120)
            if child.returncode != 0:
                failures.append(f"{name}: {stderr.strip().splitlines()[-1]}")
    assert not failures, "\n".join(failures)
