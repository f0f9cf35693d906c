"""The telemetry soak: a long-lived front end's traced heap, telemetry on
or off.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 tools/telemetry_soak.py on|off N [N ...]

Drives one in-process ``ProvenanceFrontend`` with one ingest per record
(one file version carrying one provenance record) and a flush every 8
ingests, under ``tracemalloc``, and prints the traced heap in bytes
after each of the ingest counts ``N`` (ascending), space-separated.

Run each mode in its own interpreter with the same ``PYTHONHASHSEED``
and compare the two: the on-minus-off gap is what telemetry costs, and
it must not grow with the ingest count.  One process per mode keeps
interpreter-global state (the interned-string table, allocator pools)
out of the comparison.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from typing import List, Sequence

from repro.cloud import CloudAccount
from repro.service import ProvenanceFrontend

FLUSH_EVERY = 8


def soak(telemetry: bool, checkpoints: Sequence[int]) -> List[int]:
    """Traced heap in bytes after each of ``checkpoints`` ingests."""
    tracemalloc.start()
    try:
        front = ProvenanceFrontend(
            account=CloudAccount(seed=5, telemetry=telemetry)
        )
        heap = []
        for index in range(max(checkpoints)):
            front._handle_post("/v1/ingest", {
                "client_id": f"c{index % 4}",
                "path": f"/mnt/pass/f{index:06d}",
                "uuid": f"u{index:07d}",
                "version": 0,
                "data": "x",
                "attributes": {"type": ["file"]},
            })
            if index % FLUSH_EVERY == FLUSH_EVERY - 1:
                front._handle_post("/v1/flush", {})
            if index + 1 in checkpoints:
                heap.append(tracemalloc.get_traced_memory()[0])
        return heap
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("telemetry", choices=("on", "off"))
    parser.add_argument("ingests", type=int, nargs="+")
    args = parser.parse_args(argv)
    print(*soak(args.telemetry == "on", sorted(args.ingests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
