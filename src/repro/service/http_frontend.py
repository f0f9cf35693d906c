"""A thin HTTP front end over the ingest gateway and query engines.

The service tier so far is reachable only as Python objects; this module
makes it reachable the way the paper's deployment is — over the wire.
It is deliberately thin: stdlib :mod:`http.server`, JSON bodies, and a
1:1 mapping onto existing calls (``submit``/``flush_pending`` on the
:class:`~repro.service.gateway.IngestGateway`, Q1–Q4 on its cached
shard-aware query engine, raw ``select`` on SimpleDB).  No logic lives
here — the front end marshals JSON in and out, so everything the
differential matrix pins about the gateway and engines holds verbatim
for HTTP clients.

Endpoints
---------

- ``GET  /healthz`` — liveness, backend name, virtual-clock time.
- ``POST /v1/ingest`` — one flush: ``{"client_id", "path", "uuid",
  "version", "data", "attributes": {attr: [values]}}``; buffered into
  the gateway's batching window.
- ``POST /v1/flush`` — coalesce and issue the pending window.
- ``POST /v1/settle`` — advance the virtual clock (``{"seconds": s}``,
  0 <= s <= :data:`MAX_SETTLE_SECONDS`) so eventually-consistent writes
  become visible to queries.
- ``POST /v1/query`` — ``{"query": "q1"|"q2"|"q3"|"q4", "arg": ...}``.
- ``POST /v1/select`` — ``{"expression": "select * from ..."}``.
- ``GET  /v1/stats`` — gateway/billing counters.

The server runs on a daemon thread (``port=0`` picks a free port); the
simulation itself stays single-threaded because the stdlib
:class:`~http.server.HTTPServer` handles one request at a time.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, List, Optional, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.errors import CloudServiceError
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import FlushIntent
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.core.protocol_base import DomainRouter, FlushWork
from repro.query.ancestry import XREF_ATTRIBUTES
from repro.service.gateway import IngestGateway

#: Largest request body the front end reads.  A larger declared
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stall mid-request before it is dropped.  The
#: server handles one request at a time, so without a limit one stalled
#: client would block every other.
REQUEST_TIMEOUT_S = 10.0

#: Longest virtual-clock step one ``/v1/settle`` takes: a day, far past
#: any consistency window.  An unbounded step such as ``1e308`` leaves a
#: clock whose float no longer resolves a second.
MAX_SETTLE_SECONDS = 86_400.0


def _jsonable(value):
    """Recursively convert engine answers into JSON-encodable data."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, NodeRef):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class ProvenanceFrontend:
    """The HTTP ingest/query service over one account's gateway."""

    def __init__(
        self,
        account: Optional[CloudAccount] = None,
        router: Optional[DomainRouter] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.account = account if account is not None else CloudAccount()
        self.gateway = IngestGateway(self.account, router=router)
        self.engine = self.gateway.query_engine()
        self._host = host
        self._port = port
        self._server: Optional[HTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns ``(host, port)``."""
        if self._server is not None:
            return self.address
        frontend = self

        class Handler(BaseHTTPRequestHandler):
            timeout = REQUEST_TIMEOUT_S

            def log_message(self, format, *args):  # noqa: A002 - stdlib name
                pass  # silence per-request stderr chatter

            def _reply(self, status: int, payload: Dict) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                try:
                    handled = frontend._handle_get(self.path)
                except Exception as exc:
                    self._reply(500, {"error": str(exc)})
                    return
                if handled is None:
                    self._reply(404, {"error": f"no such endpoint {self.path}"})
                else:
                    self._reply(200, handled)

            def do_POST(self):
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                except ValueError:
                    length = -1
                if length < 0:
                    self._reply(400, {
                        "error": "Content-Length must be a non-negative integer"
                    })
                    return
                if length > MAX_BODY_BYTES:
                    self._reply(
                        413, {"error": f"body over {MAX_BODY_BYTES} bytes"}
                    )
                    return
                raw = self.rfile.read(length) if length else b""
                if len(raw) < length:
                    # The client closed its side before sending the
                    # declared body: a prefix is not the request.
                    self._reply(400, {
                        "error": f"body shorter than Content-Length "
                        f"({len(raw)} of {length} bytes)"
                    })
                    return
                try:
                    body = json.loads(raw.decode("utf-8")) if raw else {}
                except (ValueError, RecursionError) as exc:
                    # Bad UTF-8, bad JSON, or arrays and objects nested
                    # past the decoder's recursion limit.
                    self._reply(400, {"error": f"invalid JSON body: {exc}"})
                    return
                if not isinstance(body, dict):
                    self._reply(400, {"error": "JSON body must be an object"})
                    return
                try:
                    handled = frontend._handle_post(self.path, body)
                except (KeyError, ValueError, CloudServiceError) as exc:
                    self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
                    return
                except Exception as exc:
                    self._reply(500, {"error": str(exc)})
                    return
                if handled is None:
                    self._reply(404, {"error": f"no such endpoint {self.path}"})
                else:
                    self._reply(200, handled)

        self._server = HTTPServer((self._host, self._port), Handler)
        # ``shutdown()`` waits out one poll of the serve loop: the
        # default half second would be most of a short-lived server's
        # life (a selector wake-up every 20 ms costs nothing measurable).
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.02},
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "frontend is not started"
        return self._server.server_address[:2]

    # -- request handling (runs on the server thread) --------------------------

    def _handle_get(self, path: str) -> Optional[Dict]:
        if path == "/healthz":
            return {
                "status": "ok",
                "backend": self.account.backend,
                "virtual_now": self.account.now,
            }
        if path == "/v1/stats":
            return {
                "gateway": self.gateway.stats.summary(),
                "pending": self.gateway.pending_count(),
                "operations": self.account.billing.operation_count(),
                "cost_usd": self.account.billing.cost(),
                "backend": self.account.backend,
                "virtual_now": self.account.now,
            }
        return None

    def _handle_post(self, path: str, body: Dict) -> Optional[Dict]:
        if path == "/v1/ingest":
            return self._ingest(body)
        if path == "/v1/flush":
            return {"requests": self.gateway.flush_pending()}
        if path == "/v1/settle":
            seconds = body.get("seconds", 120.0)
            if isinstance(seconds, bool) or not isinstance(
                seconds, (int, float, str)
            ):
                raise ValueError(f"seconds must be a number (got {seconds!r})")
            seconds = float(seconds)
            if not 0 <= seconds <= MAX_SETTLE_SECONDS:
                raise ValueError(
                    f"seconds must be in [0, {MAX_SETTLE_SECONDS:g}] (got {seconds})"
                )
            self.account.settle(seconds)
            return {"virtual_now": self.account.now}
        if path == "/v1/query":
            return self._query(body)
        if path == "/v1/select":
            rows = self.account.simpledb.select(str(body["expression"]))
            return {"rows": _jsonable(rows)}
        return None

    def _ingest(self, body: Dict) -> Dict:
        client_id = str(body["client_id"])
        uuid = str(body["uuid"])
        version = body.get("version", 0)
        if isinstance(version, bool) or not isinstance(version, (int, str)):
            raise ValueError(f"version must be an integer (got {version!r})")
        ref = NodeRef(uuid, int(version))
        if ref.version < 0:
            raise ValueError(f"version must be non-negative (got {ref.version})")
        attributes = body.get("attributes", {})
        if not isinstance(attributes, dict) or not all(
            isinstance(values, list)
            and all(isinstance(v, (str, int, float)) for v in values)
            for values in attributes.values()
        ):
            raise ValueError(
                "attributes must map each name to a list of strings or numbers"
            )
        records: List[ProvenanceRecord] = []
        for attribute, values in attributes.items():
            for value in values:
                if attribute in XREF_ATTRIBUTES:
                    records.append(
                        ProvenanceRecord(ref, attribute, NodeRef.parse(str(value)))
                    )
                else:
                    records.append(ProvenanceRecord(ref, attribute, str(value)))
        work = FlushWork(
            primary=FlushIntent(
                path=str(body["path"]),
                uuid=uuid,
                ref=ref,
                blob=Blob.from_text(str(body.get("data", ""))),
            ),
            bundles=[ProvenanceBundle(uuid=uuid, records=records)],
        )
        self.gateway.submit(client_id, work)
        return {"accepted": True, "pending": self.gateway.pending_count()}

    def _query(self, body: Dict) -> Dict:
        query = str(body["query"])
        arg = body.get("arg")
        if query == "q1":
            index, stats = self.engine.q1_all_provenance()
            answer = {
                str(ref): _jsonable(index.attributes(ref)) for ref in index.refs()
            }
        elif query == "q2":
            answer, stats = self.engine.q2_object_provenance(str(arg))
            answer = _jsonable(answer)
        elif query == "q3":
            refs, stats = self.engine.q3_direct_outputs(str(arg))
            answer = _jsonable(refs)
        elif query == "q4":
            refs, stats = self.engine.q4_all_descendants(str(arg))
            answer = _jsonable(refs)
        else:
            raise ValueError(f"unknown query {query!r} (one of q1-q4)")
        return {
            "query": query,
            "answer": answer,
            "stats": {
                "elapsed_seconds": stats.elapsed_seconds,
                "operations": stats.operations,
            },
        }
