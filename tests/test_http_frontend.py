"""End-to-end tests for the JSON/HTTP ingest-and-query front end.

A real :mod:`http.server` instance binds a loopback port (port 0, so the
kernel picks a free one) and a stdlib ``urllib`` client drives the full
paper workflow over the wire: ingest a small provenance graph, flush the
gateway window, settle the virtual clock, then answer Q1-Q4 and a raw
select.  Parametrized over both backends — the HTTP surface is the same
thin marshalling layer either way.
"""

import http.client
import json
import socket
import sqlite3
import urllib.error
import urllib.request

import pytest

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.query.ancestry import XREF_ATTRIBUTES
from repro.service import ProvenanceFrontend, ShardRouter, http_frontend
from repro.service.http_frontend import MAX_BODY_BYTES


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


@pytest.fixture(params=["sim", "local"])
def frontend(request):
    front = ProvenanceFrontend(
        account=CloudAccount(seed=11, backend=request.param)
    )
    host, port = front.start()
    base = f"http://{host}:{port}"
    yield front, base
    front.stop()
    front.account.close()


def _ingest_small_graph(base):
    """One process (blastall) with one output file and one grandchild."""
    _post(base, "/v1/ingest", {
        "client_id": "c0",
        "path": "/mnt/pass/blastall",
        "uuid": "proc-1",
        "version": 0,
        "data": "#!ELF",
        "attributes": {"type": ["proc"], "name": ["blastall"]},
    })
    _post(base, "/v1/ingest", {
        "client_id": "c0",
        "path": "/mnt/pass/out.fasta",
        "uuid": "file-1",
        "version": 0,
        "data": "ACGT",
        "attributes": {
            "type": ["file"],
            "name": ["out.fasta"],
            "input": ["proc-1_0"],
        },
    })
    _post(base, "/v1/ingest", {
        "client_id": "c1",
        "path": "/mnt/pass/summary.txt",
        "uuid": "file-2",
        "version": 0,
        "data": "4 bases",
        "attributes": {
            "type": ["file"],
            "name": ["summary.txt"],
            "input": ["file-1_0"],
        },
    })
    flushed = _post(base, "/v1/flush", {})
    assert flushed["requests"] >= 1
    settled = _post(base, "/v1/settle", {"seconds": 120.0})
    assert settled["virtual_now"] > 0.0


class TestLifecycle:
    def test_healthz_reports_backend_and_clock(self, frontend):
        front, base = frontend
        health = _get(base, "/healthz")
        assert health["status"] == "ok"
        assert health["backend"] == front.account.backend
        assert health["virtual_now"] == front.account.now

    def test_start_is_idempotent(self, frontend):
        front, base = frontend
        assert front.start() == front.address

    def test_stats_counts_pending_and_operations(self, frontend):
        front, base = frontend
        before = _get(base, "/v1/stats")
        _post(base, "/v1/ingest", {
            "client_id": "c0",
            "path": "/mnt/pass/a",
            "uuid": "u-1",
            "attributes": {"type": ["file"]},
        })
        during = _get(base, "/v1/stats")
        assert during["pending"] == before["pending"] + 1
        _post(base, "/v1/flush", {})
        after = _get(base, "/v1/stats")
        assert after["pending"] == 0
        assert after["operations"] > before["operations"]


class TestIngestAndQuery:
    def test_full_workflow_q1_to_q4(self, frontend):
        front, base = frontend
        _ingest_small_graph(base)

        q1 = _post(base, "/v1/query", {"query": "q1"})
        assert set(q1["answer"]) == {"proc-1_0", "file-1_0", "file-2_0"}
        assert q1["answer"]["file-1_0"]["input"] == ["proc-1_0"]
        assert q1["stats"]["operations"] >= 1

        q2 = _post(
            base, "/v1/query", {"query": "q2", "arg": "/mnt/pass/out.fasta"}
        )
        assert q2["answer"]["name"] == ["out.fasta"]
        assert q2["answer"]["input"] == ["proc-1_0"]

        q3 = _post(base, "/v1/query", {"query": "q3", "arg": "blastall"})
        assert q3["answer"] == ["file-1_0"]

        q4 = _post(base, "/v1/query", {"query": "q4", "arg": "blastall"})
        assert q4["answer"] == ["file-1_0", "file-2_0"]

    def test_select_over_http(self, frontend):
        front, base = frontend
        _ingest_small_graph(base)
        rows = _post(base, "/v1/select", {
            "expression": "select * from `pass-prov` where type = 'proc'",
        })["rows"]
        assert len(rows) == 1
        item, attributes = rows[0]
        assert attributes["name"] == ["blastall"]

    def test_values_shaped_like_the_item_format_read_back_literally(
        self, frontend
    ):
        """A client value that looks like a spill pointer, or an attribute
        named like the overflow pointer, is stored and answered as given:
        it is neither followed to another object's data nor parsed as an
        overflow blob."""
        front, base = frontend
        _post(base, "/v1/ingest", {
            "client_id": "a",
            "path": "/mnt/pass/secret",
            "uuid": "secret",
            "data": "TOP SECRET DATA",
            "attributes": {"type": ["file"]},
        })
        _post(base, "/v1/ingest", {
            "client_id": "b",
            "path": "/mnt/pass/pub",
            "uuid": "pub",
            "data": "public",
            "attributes": {
                "type": ["file"],
                "note": ["s3-spill:files/mnt/pass/secret"],
                "overflow": ["not|a record"],
            },
        })
        _post(base, "/v1/flush", {})
        _post(base, "/v1/settle", {"seconds": 120.0})

        q2 = _post(base, "/v1/query", {"query": "q2", "arg": "/mnt/pass/pub"})
        assert q2["answer"]["note"] == ["s3-spill:files/mnt/pass/secret"]
        assert q2["answer"]["overflow"] == ["not|a record"]
        q1 = _post(base, "/v1/query", {"query": "q1"})
        assert q1["answer"]["pub_0"]["note"] == ["s3-spill:files/mnt/pass/secret"]
        assert q1["answer"]["pub_0"]["overflow"] == ["not|a record"]
        assert "TOP SECRET DATA" not in json.dumps(q1["answer"])

    def test_answers_identical_across_backends(self):
        """The differential property, through the HTTP surface itself."""
        answers = {}
        for backend in ("sim", "local"):
            front = ProvenanceFrontend(
                account=CloudAccount(seed=11, backend=backend)
            )
            host, port = front.start()
            base = f"http://{host}:{port}"
            _ingest_small_graph(base)
            answers[backend] = (
                _post(base, "/v1/query", {"query": "q1"})["answer"],
                _post(base, "/v1/query", {"query": "q4", "arg": "blastall"}),
                _post(base, "/v1/select", {
                    "expression": "select * from `pass-prov`",
                })["rows"],
                _get(base, "/v1/stats")["cost_usd"],
            )
            front.stop()
            front.account.close()
        assert answers["sim"] == answers["local"]


class TestErrorHandling:
    def _status(self, base, path, payload):
        try:
            _post(base, path, payload)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())
        return 200, None

    def test_unknown_endpoint_is_404(self, frontend):
        front, base = frontend
        status, body = self._status(base, "/v1/nope", {})
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_missing_field_is_400(self, frontend):
        front, base = frontend
        status, body = self._status(base, "/v1/ingest", {"client_id": "c0"})
        assert status == 400
        assert "KeyError" in body["error"]

    def test_unknown_query_is_400(self, frontend):
        front, base = frontend
        status, body = self._status(base, "/v1/query", {"query": "q9"})
        assert status == 400
        assert "q1-q4" in body["error"]

    def test_bad_select_is_400(self, frontend):
        front, base = frontend
        status, body = self._status(
            base, "/v1/select", {"expression": "not a select"}
        )
        assert status == 400

    def test_invalid_json_body_is_400(self, frontend):
        front, base = frontend
        request = urllib.request.Request(
            base + "/v1/flush",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("payload", [["c0"], None])
    def test_json_body_that_is_not_an_object_is_400(self, frontend, payload):
        front, base = frontend
        status, body = self._status(base, "/v1/ingest", payload)
        assert status == 400
        assert "object" in body["error"]

    @pytest.mark.parametrize(
        "malformed",
        [{"attributes": {"a": 5}}, {"attributes": {"a": "xyz"}}, {"version": [1]}]
        # Every attribute the ancestry index reads as an edge must parse
        # as a node reference, not only ``input``.
        + [{"attributes": {name: ["garbage"]}} for name in sorted(XREF_ATTRIBUTES)],
        ids=["values-a-number", "values-a-string", "version-a-list"]
        + [f"{name}-not-a-node-ref" for name in sorted(XREF_ATTRIBUTES)],
    )
    def test_malformed_ingest_is_400_and_submits_nothing(self, frontend, malformed):
        front, base = frontend
        payload = {"client_id": "c0", "path": "/mnt/pass/a", "uuid": "u-1"}
        status, body = self._status(base, "/v1/ingest", {**payload, **malformed})
        assert status == 400
        assert "ValueError" in body["error"]
        assert _get(base, "/v1/stats")["pending"] == 0

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_settle_is_400_and_leaves_the_clock(self, frontend, seconds):
        front, base = frontend
        before = _get(base, "/healthz")["virtual_now"]
        status, body = self._status(base, "/v1/settle", {"seconds": seconds})
        assert status == 400
        assert _get(base, "/healthz")["virtual_now"] == before
        settled = _post(base, "/v1/settle", {"seconds": 1.0})
        assert settled["virtual_now"] == before + 1.0


class TestServerErrors:
    """A fault the handlers do not anticipate becomes a 500 JSON reply
    naming it, and the server keeps answering."""

    @staticmethod
    def _error(call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        assert excinfo.value.headers["Content-Type"] == "application/json"
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_os_error_under_a_get_is_500(self, frontend, monkeypatch):
        front, base = frontend

        def full_disk():
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(front.gateway.stats, "summary", full_disk)
        status, body = self._error(lambda: _get(base, "/v1/stats"))
        assert status == 500
        assert "No space left on device" in body["error"]
        assert _get(base, "/healthz")["status"] == "ok"

    def test_sqlite_error_under_a_post_is_500(self, frontend, monkeypatch):
        front, base = frontend

        def locked(expression):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(front.account.simpledb, "select", locked)
        status, body = self._error(lambda: _post(
            base, "/v1/select", {"expression": "select * from provenance"}
        ))
        assert status == 500
        assert body["error"] == "database is locked"
        assert _get(base, "/healthz")["status"] == "ok"


def _raw_post(address, headers):
    """POST /v1/ingest with hand-set headers and no body; returns the
    status and the decoded reply."""
    connection = http.client.HTTPConnection(*address, timeout=5)
    try:
        connection.putrequest("POST", "/v1/ingest")
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestInputLimits:
    def test_body_over_the_cap_is_413_without_reading_it(self, frontend):
        front, base = frontend
        # No body follows the headers: a server that tried to read the
        # declared length would wait for it until the client times out.
        status, body = _raw_post(
            front.address, {"Content-Length": str(MAX_BODY_BYTES + 1)}
        )
        assert status == 413
        assert front.gateway.pending_count() == 0

    @pytest.mark.parametrize("length", ["ten", "-1"])
    def test_bad_content_length_is_400(self, frontend, length):
        front, base = frontend
        status, body = _raw_post(front.address, {"Content-Length": length})
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_body_shorter_than_content_length_is_400(self, frontend):
        front, base = frontend
        body = json.dumps({
            "client_id": "c0",
            "path": "/mnt/pass/a",
            "uuid": "u-1",
            "attributes": {"type": ["file"]},
        }).encode("utf-8")
        with socket.create_connection(front.address, timeout=5) as client:
            # A valid request body, declared 40 bytes too long, then EOF.
            client.sendall(
                b"POST /v1/ingest HTTP/1.0\r\n"
                + f"Content-Length: {len(body) + 40}\r\n\r\n".encode()
                + body
            )
            client.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := client.recv(4096):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(payload)["error"]
        assert front.gateway.pending_count() == 0

    def test_stalled_client_does_not_block_the_server(self, monkeypatch):
        monkeypatch.setattr(http_frontend, "REQUEST_TIMEOUT_S", 0.2)
        front = ProvenanceFrontend(account=CloudAccount(seed=11))
        host, port = front.start()
        try:
            with socket.create_connection((host, port), timeout=5) as stalled:
                # Declares 100 bytes, sends one, then goes quiet.
                stalled.sendall(
                    b"POST /v1/ingest HTTP/1.0\r\nContent-Length: 100\r\n\r\n{"
                )
                # The server answers one request at a time: the next
                # client is served once the stalled one is dropped.
                with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=5
                ) as response:
                    assert json.loads(response.read())["status"] == "ok"
                assert stalled.recv(1024) == b""
        finally:
            front.stop()
            front.account.close()


def _send(address, path, raw):
    """POST ``raw`` bytes to ``path`` on a fresh connection; returns the
    status and the decoded reply (a dropped connection raises)."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request(
            "POST", path, body=raw, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHostileBodies:
    """Bodies the front end must refuse: each answers 400 and leaves the
    store, the gateway window and the clock as they were."""

    @pytest.mark.parametrize(
        "path, raw",
        [
            # The decoder recurses once per nesting level, so this
            # raises RecursionError, not ValueError.
            ("/v1/ingest", b"[" * 200_000),
            ("/v1/settle", b'{"seconds": 1e308}'),
            ("/v1/settle", b'{"seconds": -1}'),
            # float() raises TypeError, not ValueError, on these.
            ("/v1/settle", b'{"seconds": [1]}'),
            ("/v1/settle", b'{"seconds": {}}'),
            ("/v1/settle", b'{"seconds": null}'),
            ("/v1/ingest", json.dumps({
                "client_id": "c0", "path": "/mnt/pass/a", "uuid": "u-1",
                "version": -1, "attributes": {"type": ["file"]},
            }).encode("utf-8")),
            ("/v1/ingest", json.dumps({
                "client_id": "c0", "path": "/mnt/pass/a", "uuid": "u-1",
                "version": "-3",
            }).encode("utf-8")),
        ],
        ids=[
            "nested-brackets", "settle-1e308", "settle-negative",
            "settle-list", "settle-object", "settle-null",
            "negative-version", "negative-version-text",
        ],
    )
    def test_is_400_and_changes_nothing(self, frontend, path, raw):
        front, base = frontend
        _ingest_small_graph(base)
        account = front.account
        before = (
            store_fingerprint(account), front.gateway.pending_count(), account.now
        )
        status, body = _send(front.address, path, raw)
        assert status == 400, body
        after = (
            store_fingerprint(account), front.gateway.pending_count(), account.now
        )
        assert after == before
        assert _get(base, "/healthz")["status"] == "ok"

    def test_settle_up_to_the_cap_is_taken(self, frontend):
        front, base = frontend
        before = front.account.now
        settled = _post(
            base, "/v1/settle", {"seconds": http_frontend.MAX_SETTLE_SECONDS}
        )
        assert settled["virtual_now"] == before + http_frontend.MAX_SETTLE_SECONDS


class TestShardedRestart:
    """A sharded local deployment restarted and written again answers
    Q3/Q4 over HTTP with every file, old and new: the restarted router
    routes by uuid hash alone, so it keeps no state a restart loses."""

    @staticmethod
    def _serve(root):
        front = ProvenanceFrontend(
            CloudAccount(seed=11, backend="local", backend_root=str(root)),
            router=ShardRouter(shards=2),
        )
        host, port = front.start()
        return front, f"http://{host}:{port}"

    @staticmethod
    def _ingest_run(base, proc, files):
        """One ``blastall`` process ``proc`` and the files it wrote."""
        _post(base, "/v1/ingest", {
            "client_id": "c0",
            "path": f"/mnt/pass/{proc}",
            "uuid": proc,
            "attributes": {"type": ["proc"], "name": ["blastall"]},
        })
        for uuid in files:
            _post(base, "/v1/ingest", {
                "client_id": "c0",
                "path": f"/mnt/pass/{uuid}.out",
                "uuid": uuid,
                "data": uuid,
                "attributes": {"type": ["file"], "input": [f"{proc}_0"]},
            })
        _post(base, "/v1/flush", {})
        _post(base, "/v1/settle", {"seconds": 120.0})

    def test_reopen_then_ingest_answers_every_file(self, tmp_path):
        before = [f"old-{i}" for i in range(4)]
        after = [f"new-{i}" for i in range(4)]
        front, base = self._serve(tmp_path)
        self._ingest_run(base, "proc-old", before)
        front.stop()
        front.account.close()

        front, base = self._serve(tmp_path)
        try:
            self._ingest_run(base, "proc-new", after)
            every_file = sorted(f"{uuid}_0" for uuid in before + after)
            for query in ("q3", "q4"):
                answer = _post(
                    base, "/v1/query", {"query": query, "arg": "blastall"}
                )["answer"]
                assert answer == every_file, query
        finally:
            front.stop()
            front.account.close()
