"""Lint: the local backend only stores.

``src/repro/backends/local/`` swaps the storage substrate under the
simulated services and nothing else.  Request building, billing, seeded
draws and the service errors a caller sees belong to the service classes
in ``repro.cloud``, which run unchanged over the local stores; a second
copy here could drift from the simulator's semantics.  This test greps
the package for ``Request(`` constructions, ``_billing`` / ``_rng``
references and the names of :class:`~repro.errors.CloudServiceError`
and its subclasses, and fails on any hit.
"""

import pathlib
import re

from repro.errors import CloudServiceError

LOCAL = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "backends" / "local"
)


def _service_errors(cls=CloudServiceError):
    yield cls.__name__
    for sub in cls.__subclasses__():
        yield from _service_errors(sub)


FORBIDDEN = re.compile(
    r"\bRequest\(|\b_billing\b|\b_rng\b|\b(?:"
    + "|".join(sorted(set(_service_errors())))
    + r")\b"
)


def test_local_backend_builds_no_requests_and_raises_no_service_errors():
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(LOCAL.rglob("*.py"))
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if FORBIDDEN.search(line)
    ]
    assert not hits, (
        "service semantics in src/repro/backends/local/ (they belong to "
        "repro.cloud's services, which run over the local stores):\n"
        + "\n".join(hits)
    )
