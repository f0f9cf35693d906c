"""The local backend on disk: one sqlite transaction per request, blob
sidecars that are whole or absent, and a reopen that restores the store.

The kill tests run a child process against a local root and SIGKILL it
part-way through one request — a 25-item ``BatchPutAttributes``, a
10-message ``ReceiveMessage``, an S3 sidecar write.  The parent then
reopens the root as a fresh account: a request either landed whole or
left no trace, and the store still fingerprints.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.backends.parity import store_fingerprint
from repro.cloud import CloudAccount
from repro.cloud.blob import Blob

#: The directory ``repro`` is imported from, for the child processes.
_SRC = os.path.dirname(os.path.abspath(list(repro.__path__)[0]))

_ITEMS = [(f"item-{n:02d}", [("type", "file"), ("n", f"{n:02d}")]) for n in range(25)]


def _run_killed_child(body: str, root) -> str:
    """Run ``body`` (with ``root`` bound) in a child that must die by
    SIGKILL; returns what it printed before dying."""
    script = "import os, signal, sys\nroot = sys.argv[1]\n" + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, str(root)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == -signal.SIGKILL, done.stderr
    return done.stdout


def _open(root) -> CloudAccount:
    return CloudAccount(seed=0, backend="local", backend_root=str(root))


def test_batch_put_killed_mid_request_is_all_or_nothing(tmp_path):
    """The child dies as it is about to store row 13 of 25."""
    _run_killed_child(
        f"""
        from repro.cloud import CloudAccount
        from repro.backends.local.tablestore import SqliteRegister

        account = CloudAccount(seed=0, backend="local", backend_root=root)
        account.simpledb.create_domain("d")
        original, rows = SqliteRegister.write, []

        def write(self, *args):
            rows.append(self)
            if len(rows) == 13:
                os.kill(os.getpid(), signal.SIGKILL)
            original(self, *args)

        SqliteRegister.write = write
        account.simpledb.batch_put("d", {_ITEMS!r})
        """,
        tmp_path,
    )
    account = _open(tmp_path)
    try:
        stored = account.simpledb.stored_version_count("d")
        assert stored in (0, 25), f"{stored} of 25 rows survived the kill"
        assert len(account.simpledb.peek_item_names("d")) == stored
    finally:
        account.close()


def test_receive_killed_mid_lease_is_all_or_nothing(tmp_path):
    """Ten sent messages, then a receive of ten that dies as it is
    about to write the sixth lease."""
    _run_killed_child(
        """
        from repro.cloud import CloudAccount

        account = CloudAccount(seed=0, backend="local", backend_root=root)
        url = account.sqs.create_queue("wal")
        for n in range(10):
            account.sqs.send_message(url, f"m{n}")
        account.settle(1.0)
        leases = []

        def trace(statement):
            if statement.startswith("UPDATE sqs_messages SET invisible_until"):
                leases.append(statement)
                if len(leases) == 6:
                    os.kill(os.getpid(), signal.SIGKILL)

        account.sqs._conn.set_trace_callback(trace)
        account.sqs.receive_messages(url, 10)
        """,
        tmp_path,
    )
    account = _open(tmp_path)
    try:
        conn = account.sqs._conn
        rows = conn.execute(
            "SELECT receipt_counter, invisible_until > sent_at FROM sqs_messages"
        ).fetchall()
        (receipts,) = conn.execute("SELECT COUNT(*) FROM sqs_receipts").fetchone()
        assert len(rows) == 10
        assert rows in ([(0, 0)] * 10, [(1, 1)] * 10), rows
        assert receipts == sum(counter for counter, _ in rows)
    finally:
        account.close()


def test_blob_sidecar_killed_before_it_is_written_leaves_no_version(tmp_path):
    """The child dies with a second version's sidecar opened but empty:
    after reopen that version is absent and the store fingerprints as
    it did before the write began."""
    printed = _run_killed_child(
        """
        from pathlib import Path
        from repro.cloud import CloudAccount  # first: repro.backends imports it
        from repro.backends.parity import store_fingerprint
        from repro.cloud.blob import Blob

        account = CloudAccount(seed=0, backend="local", backend_root=root)
        account.s3.create_bucket("b")
        account.s3.put("b", "k", Blob.from_text("one"), {"v": "1"})
        account.s3.put("b", "other", Blob.synthetic(10, "other"))
        print(store_fingerprint(account), flush=True)

        def open_then_die(self, *args, **kwargs):
            self.open("w").close()
            os.kill(os.getpid(), signal.SIGKILL)

        Path.write_text = open_then_die
        account.s3.put("b", "k", Blob.from_text("two"), {"v": "2"})
        """,
        tmp_path,
    )
    account = _open(tmp_path)
    try:
        assert store_fingerprint(account) == printed.strip()
        assert account.s3.peek_latest("b", "k").metadata == {"v": "1"}
        account.s3.put("b", "k", Blob.from_text("two"), {"v": "2"})
        assert account.s3.peek_latest("b", "k").metadata == {"v": "2"}
        key_dir = account.s3.stored_object_dir("b", "k")
        assert sorted(p.name for p in key_dir.glob("v-*.json")) == [
            "v-00000001.json",
            "v-00000002.json",
        ]
    finally:
        account.close()


def _traced(conn, action):
    statements = []
    conn.set_trace_callback(statements.append)
    try:
        action()
    finally:
        conn.set_trace_callback(None)
    return statements


def _assert_one_transaction(statements, writes):
    """Exactly one ``BEGIN … COMMIT``, holding every write statement."""
    assert statements.count("BEGIN") == 1 and statements.count("COMMIT") == 1
    begin, commit = statements.index("BEGIN"), statements.index("COMMIT")
    outside = statements[:begin] + statements[commit + 1 :]
    assert all(s.startswith("SELECT") for s in outside), outside
    inside = statements[begin + 1 : commit]
    assert sum(not s.startswith("SELECT") for s in inside) == writes


def test_batch_put_and_receive_are_one_transaction_each(tmp_path):
    account = _open(tmp_path)
    try:
        sdb, sqs = account.simpledb, account.sqs
        sdb.create_domain("d")
        statements = _traced(sdb._conn, lambda: sdb.batch_put("d", _ITEMS))
        _assert_one_transaction(statements, writes=25)
        url = sqs.create_queue("wal")
        for n in range(10):
            sqs.send_message(url, f"m{n}")
        account.settle(1.0)
        received = []
        statements = _traced(
            sqs._conn, lambda: received.extend(sqs.receive_messages(url, 10))
        )
        assert len(received) == 10
        # The retention sweep, then a lease and a receipt per message.
        _assert_one_transaction(statements, writes=1 + 2 * 10)
    finally:
        account.close()


def test_rows_store_the_packed_tuple_and_reopen_restores_the_plan(tmp_path):
    """Each row's text is the compact JSON of the stored tuple; closing
    and reopening rebuilds an index whose plans and footprint are the
    ones the live service had."""
    account = _open(tmp_path)
    sdb = account.simpledb
    sdb.create_domain("d")
    for start in range(0, 200, 25):
        sdb.batch_put(
            "d",
            [
                (
                    f"u{n:04d}",
                    [
                        ("type", "proc" if n % 9 == 0 else "file"),
                        ("name", f"prog-{n % 13:02d}"),
                        ("input", f"u{max(0, n - 1 - n % 3):04d}"),
                        ("input", f"u{max(0, n - 2):04d}"),
                    ],
                )
                for n in range(start, start + 25)
            ],
        )
    (text,) = sdb._conn.execute(
        "SELECT attrs FROM sdb_versions WHERE item = 'u0012'"
    ).fetchone()
    assert text == (
        '["type","file","name","prog-12","input","u0011","input","u0010"]'
    )
    assert tuple(json.loads(text)) == sdb._domains["d"].registry.get(
        "u0012"
    ).read_latest_committed(float("inf")).value
    expressions = [
        "select * from d where type = 'proc'",
        "select * from d where name = 'prog-03' and input > 'u0100'",
        "select * from d where input between 'u0020' and 'u0040'",
        "select * from d where type = 'file' or name = 'prog-00'",
    ]
    before = [sdb.explain(e) for e in expressions], sdb.index_memory_bytes()
    fingerprint = store_fingerprint(account)
    account.close()
    account = _open(tmp_path)
    try:
        sdb = account.simpledb
        after = [sdb.explain(e) for e in expressions], sdb.index_memory_bytes()
        assert after == before
        assert store_fingerprint(account) == fingerprint
    finally:
        account.close()


def test_a_failed_apply_rolls_back_the_whole_request(tmp_path):
    """A batch put whose apply raises part-way stores nothing: the
    transaction rolls back and the error reaches the caller."""
    account = _open(tmp_path)
    try:
        sdb = account.simpledb
        sdb.create_domain("d")
        request = sdb.batch_put_request("d", _ITEMS)
        calls = []
        original = sdb._merge_item

        def merge(*args):
            calls.append(args)
            if len(calls) == 13:
                raise OSError("disk full")
            original(*args)

        sdb._merge_item = merge
        with pytest.raises(OSError, match="disk full"):
            account.scheduler.execute_one(request)
        assert sdb.stored_version_count("d") == 0
        assert not sdb._conn.in_transaction
    finally:
        account.close()
