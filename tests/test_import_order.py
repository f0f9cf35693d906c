"""Every ``repro`` package and module imports first.

Tier-1 runs in one process whose ``tests/conftest.py`` imports
``repro.cloud`` before anything else, so an import cycle that only bites
when another module is imported first never shows there.  This test
starts one child interpreter and, for each module in turn, drops every
``repro`` module from ``sys.modules`` and imports only that one: each
import starts from no ``repro`` module loaded, as in a fresh
interpreter, without paying an interpreter start per module.
"""

import os
import pathlib
import subprocess
import sys

import repro

PACKAGE = pathlib.Path(list(repro.__path__)[0])
#: The directory ``repro`` is imported from, for the child interpreter.
SRC = str(PACKAGE.parent)

#: Imports each module named in ``sys.argv`` with no ``repro`` module
#: loaded before it; prints one line per failure.
CHILD = """
import importlib
import sys

failures = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
print("\\n".join(failures))
sys.exit(1 if failures else 0)
"""


def _module_names():
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_imports_first_in_a_fresh_interpreter(tmp_path):
    names = _module_names()
    assert "repro.backends" in names and "repro.backends.parity" in names
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *names],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr[-2000:]
