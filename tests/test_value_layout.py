"""Value types are slotted: one allocation and no ``__dict__`` per record.

Everything the stack moves is a provenance record, and the objects made
once per record, syscall event, flush, request or kernel event (records,
node refs, intents, events, requests, blobs, heap entries) are held by
the hundred thousand.  A plain dataclass instance carries a per-instance
dict: on CPython 3.11 ``tracemalloc`` books a ``ProvenanceRecord`` at 96 B
in two allocations, a slotted one at 56 B in one.

This file keeps it so:

- a lint over the modules that define those types: every ``@dataclass``
  there passes ``slots=True`` unless :data:`ALLOWED` names it with a
  reason, and no slotted class calls zero-argument ``super()`` (a
  slotted dataclass is a rebuilt class, so the implicit ``__class__``
  cell points at the discarded one);
- the objects taken from one real P3 fleet run have no ``__dict__``
  (which also catches a slotted class under a base without slots);
- two ``tracemalloc`` windows in a fresh interpreter: bytes per record of
  a ``make_fleet`` input, and the heap ``collect(trace)`` leaves for the
  tier-1 Blast trace.
"""

import ast
import gc
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
from collections import defaultdict

import repro
from repro.cloud import CloudAccount
from repro.cloud.network import ParallelScheduler
from repro.cloud.sqs import Message, _Queue
from repro.core import collect, wal_messages
from repro.sim import kernel as sim_kernel
from repro.workloads import make_blast_workload, make_fleet
from repro.workloads.fleet import P3FleetRun

SRC = pathlib.Path(list(repro.__path__)[0])

#: The modules whose dataclasses are instantiated per record, event,
#: flush or request.
SCANNED = (
    "provenance/records.py",
    "provenance/graph.py",
    "provenance/syscalls.py",
    "provenance/pass_collector.py",
    "cloud/blob.py",
    "cloud/network.py",
    "cloud/s3.py",
    "cloud/sqs.py",
    "sim/events.py",
    "sim/kernel.py",
    "core/wal_messages.py",
    "core/protocol_base.py",
    "core/commit_daemon.py",
    "obs/events.py",
)

#: ``module:Class`` → why it keeps its ``__dict__``.
ALLOWED = {
    "provenance/syscalls.py:SyscallTrace": (
        "one per trace; workload generators and tests build it, and no "
        "run holds more than a few"
    ),
}


def _dataclass_call(decorator):
    """``(is a dataclass decorator, its keywords)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    keywords = decorator.keywords if isinstance(decorator, ast.Call) else []
    return name == "dataclass", {k.arg: k.value for k in keywords}


def _slotted(node, keywords):
    slots = keywords.get("slots")
    if isinstance(slots, ast.Constant) and slots.value is True:
        return True
    return any(
        isinstance(stmt, ast.Assign)
        and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
        for stmt in node.body
    )


def _scan():
    """``{"module:Class": slotted}`` for every dataclass in :data:`SCANNED`,
    and the ``module:Class`` of each slotted class that calls ``super()``
    without arguments."""
    dataclasses, bare_super = {}, []
    for module in SCANNED:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            key = f"{module}:{node.name}"
            for decorator in node.decorator_list:
                is_dataclass, keywords = _dataclass_call(decorator)
                if is_dataclass:
                    dataclasses[key] = _slotted(node, keywords)
                    break
            if dataclasses.get(key):
                bare_super.extend(
                    key
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "super"
                    and not call.args
                )
    return dataclasses, bare_super


def test_value_dataclasses_pass_slots():
    dataclasses, bare_super = _scan()
    unslotted = sorted(
        key for key, slotted in dataclasses.items()
        if not slotted and key not in ALLOWED
    )
    assert not unslotted, (
        "dataclasses without slots=True (add it, or name the class in "
        "ALLOWED with a reason):\n" + "\n".join(unslotted)
    )
    assert not bare_super, (
        "zero-argument super() in a slotted class (name the class and "
        "instance):\n" + "\n".join(bare_super)
    )


def test_the_scan_still_sees_the_value_types():
    # Guards the scan itself: a moved module or a decorator spelled
    # another way would make the test above pass vacuously.
    dataclasses, _ = _scan()
    for key in (
        "provenance/records.py:ProvenanceRecord",
        "provenance/graph.py:NodeRef",
        "cloud/network.py:Request",
        "sim/kernel.py:_Event",
        "obs/events.py:Event",
    ):
        assert dataclasses.get(key) is True, key
    assert set(ALLOWED) <= set(dataclasses), "stale ALLOWED entry"
    assert not any(dataclasses[key] for key in ALLOWED), "ALLOWED class is slotted"


def test_objects_of_a_p3_fleet_run_have_no_dict(monkeypatch):
    """Records (the input's and those the daemons decode from the WAL),
    node refs, requests, batch results, effects, heap entries, SQS
    messages and telemetry events, as one small P3 fleet run makes
    them."""
    seen = defaultdict(list)

    def keep(*objects):
        for obj in objects:
            seen[type(obj).__name__].append(obj)

    def wrap(owner, name, before=None, after=None):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if before:
                before(*args)
            result = original(*args, **kwargs)
            if after:
                after(result)
            return result

        monkeypatch.setattr(owner, name, wrapped)

    wrap(sim_kernel.SimKernel, "_push", before=lambda _k, event: keep(event))
    wrap(
        sim_kernel.SimKernel, "_interpret",
        before=lambda _k, _process, effect, _now: keep(effect),
    )
    wrap(
        ParallelScheduler, "execute_batch",
        before=lambda _s, requests, *_: keep(*requests),
        after=lambda batch: keep(batch, *(
            message for result in batch.results if isinstance(result, list)
            for message in result if isinstance(message, Message)
        )),
    )
    wrap(_Queue, "lease", before=lambda _q, stored, *_: keep(stored))
    wrap(wal_messages, "decode_record", after=lambda record: keep(record, record.subject))

    account = CloudAccount(seed=3)
    fleet = make_fleet(clients=3, files_per_client=2, extra_attributes=2, seed=3)
    for client in fleet:
        for work in client.works:
            keep(work, work.primary, work.primary.blob)
            for bundle in work.bundles:
                keep(bundle, *bundle.records)
                keep(*(record.subject for record in bundle.records))
    run = P3FleetRun(account, fleet, daemons=1, readers=1, seed=3)
    run.drain()
    keep(*run.commit_records, *account.telemetry.events)
    account.close()

    for name in (
        "ProvenanceRecord", "NodeRef", "ProvenanceBundle", "FlushWork",
        "FlushIntent", "Blob", "Request", "BatchResult", "Batch", "Delay",
        "_Event", "Event", "CommitRecord", "Message", "_StoredMessage",
    ):
        assert seen[name], f"the run made no {name}"
    with_dict = sorted(
        name for name, objects in seen.items()
        if any(hasattr(obj, "__dict__") for obj in objects)
    )
    assert not with_dict, f"instances with a __dict__: {with_dict}"


# --------------------------------------------------------------------------
# Memory windows, each read in a fresh interpreter
# --------------------------------------------------------------------------

#: Traced bytes per record of ``make_fleet(clients=16, files_per_client=16,
#: extra_attributes=24)``: the records, their strings and lists, the
#: bundles, refs, intents and blobs, divided by its 7 098 records.  With
#: plain dataclasses it read 312.6 (CPython 3.10), 248.0 (3.11) and
#: 223.7 (3.12); slotted, 198.8, 199.0 and 184.1.  The bound keeps 16 B of
#: headroom over the highest.
_FLEET_BYTES_PER_RECORD = 215

#: Traced bytes ``collect(trace)`` leaves behind (the ``Replay`` and
#: everything it holds) for the tier-1 Blast trace, two jobs of 30
#: queries.  With plain dataclasses it read 218 356 (3.10), 143 276
#: (3.11) and 132 684 (3.12); slotted, 96 668, 92 116 and 91 300.  The
#: bound keeps 15 % of headroom over the highest.
_COLLECT_HEAP_BYTES = 111_000


def fleet_bytes_per_record():
    make_fleet(clients=1, files_per_client=2, extra_attributes=24)
    gc.collect()
    tracemalloc.start()
    try:
        fleet = make_fleet(clients=16, files_per_client=16, extra_attributes=24)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = sum(
        len(bundle.records)
        for client in fleet
        for work in client.works
        for bundle in work.bundles
    )
    return traced / records


def collect_heap_bytes():
    trace = make_blast_workload(jobs=2, queries_per_job=30).trace
    # Warm up what a first collection allocates once per interpreter.
    collect(make_blast_workload(jobs=1, queries_per_job=1).trace)
    gc.collect()
    tracemalloc.start()
    try:
        replay = collect(trace)  # held across the reading
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return traced


def _read_fresh(function):
    """``function()``'s reading from a fresh interpreter.  The hash seed
    is the caller's, or 0: CI reruns the windows under seeds 1-5."""
    done = subprocess.run(
        [
            sys.executable, "-c",
            textwrap.dedent(
                f"""
                import sys
                sys.path.insert(0, sys.argv[1])
                from test_value_layout import {function}
                print({function}())
                """
            ),
            os.path.dirname(os.path.abspath(__file__)),
        ],
        env=dict(
            os.environ,
            PYTHONPATH=str(SRC.parent),
            PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return float(done.stdout.split()[-1])


def test_fleet_bytes_per_record():
    per_record = _read_fresh("fleet_bytes_per_record")
    assert 0 < per_record < _FLEET_BYTES_PER_RECORD, f"{per_record:.1f} B/record"


def test_collect_heap_of_the_tier1_blast_trace():
    heap = _read_fresh("collect_heap_bytes")
    assert 0 < heap < _COLLECT_HEAP_BYTES, f"{heap:.0f} B"
