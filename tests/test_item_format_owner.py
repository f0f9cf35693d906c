"""Lint: one module knows the SimpleDB item format.

``src/repro/core/sdb_items.py`` writes each version's item (spilled
values behind an ``s3-spill:`` pointer, records past the pair limit in
an ``overflow`` object under ``spill/``) and reads it back
(``spill_keys``, ``resolve_attributes``).  A second decoder elsewhere
would drift from the encoder, as the query engine's and the detection
readers' hand copies once could.  This test greps every other file under
``src/repro/`` for the format's names and literals and fails on any hit.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER = SRC / "core" / "sdb_items.py"

FORBIDDEN = re.compile(
    r"\bSPILL_POINTER_PREFIX\b|\bOVERFLOW_ATTRIBUTE\b|\bspill_key\(|"
    r"[\"']s3-spill:|[\"']spill/"
)


def test_only_sdb_items_knows_the_item_format():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path != OWNER
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if FORBIDDEN.search(line)
    ]
    assert not hits, (
        "the SimpleDB item format outside src/repro/core/sdb_items.py "
        "(encode and decode it there):\n" + "\n".join(hits)
    )


def test_the_owner_still_names_the_format():
    # Guards the pattern itself: a rename in sdb_items.py that the regex
    # no longer matches would make the test above pass vacuously.
    text = OWNER.read_text(encoding="utf-8")
    for name in ("SPILL_POINTER_PREFIX", "OVERFLOW_ATTRIBUTE", "spill_key("):
        assert name in text
    assert FORBIDDEN.search('"s3-spill:"') and FORBIDDEN.search('f"spill/')
