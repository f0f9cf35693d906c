"""``http-mixed-local``: writes beside reads, over the wire, on real storage.

``ProvenanceFrontend`` over ``backend="local"``, one ``http.client``
connection.  Per round: 16 ``/v1/ingest``, one ``/v1/flush`` and
``/v1/settle``, then ``/v1/query`` q2, q3, q4, ``/v1/select`` and the q2
again, all against what the round just wrote.  Chosen because every
flush invalidates ``service.cache`` and grows the posting tails the next
read walks: a read gain bought with write cost (or the reverse) shows
here and in neither single-purpose workload.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import socket
import tempfile
import threading
import time
from typing import List, Tuple

from repro.cloud import CloudAccount
from repro.service import ProvenanceFrontend

from common import (
    ACCOUNT_SEED,
    Rep,
    account_counts,
    close_and_reopen,
    cloud_cost,
    metered,
    snapshot_counts,
    tree_bytes,
)

FILES_PER_ROUND = 15
SETTLE_S = 120.0
#: Request kinds that read the store.
READS = ("q2", "q3", "q4", "select", "q2-repeat")


class HttpMixedLocal:
    name = "http-mixed-local"
    #: Thousands of requests a run; one in 23 is a flush, so p99 sits
    #: inside the flush latencies and p50 inside the ingests.
    tail = 0.99
    backend = "local"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.rounds = 2 if smoke else 20

    def describe(self) -> str:
        return (
            f"{self.rounds} rounds of 23 HTTP requests per repetition (16 ingest, "
            "flush, settle, q2, q3, q4, select, q2 again) against one server on "
            "a local backend that grows through the run; sqlite autocommit, "
            "rollback journal, default synchronous, as shipped"
        )

    def setup(self) -> None:
        """Bring an empty store up and serve it; every repetition then
        writes to and reads from this one growing store, as a long-lived
        server would see."""
        self.root = tempfile.mkdtemp(prefix="http-", dir=self.out_dir)
        self.account = CloudAccount(
            seed=ACCOUNT_SEED, backend="local", backend_root=self.root
        )
        self.front = ProvenanceFrontend(account=self.account)
        self.front.start()
        self.user_bytes = 0

    def _requests(self, index: int, domain: str) -> Tuple[List[tuple], int]:
        """One repetition's requests as ``(kind, method, path, body,
        expected)``, and the user bytes the ingests carry."""
        rng = random.Random(self.seed * 1009 + index)
        out: List[tuple] = []
        user_bytes = 0

        def post(kind, path, payload, expected=None):
            out.append((kind, "POST", path, json.dumps(payload).encode(), expected))

        for w in range(self.rounds):
            cid = f"c{rng.randrange(64):04d}"
            stem = f"{cid}-r{index}-w{w}"
            program = f"prog-{stem}"
            proc = f"{stem}-p_0"
            ingests = [{
                "client_id": cid, "path": f"/mnt/pass/{stem}/prog",
                "uuid": f"{stem}-p", "version": 0, "data": "#!ELF",
                "attributes": {"type": ["proc"], "name": [program]},
            }]
            for j in range(FILES_PER_ROUND):
                attributes = {
                    "type": ["file"],
                    "name": [f"out-{j}"],
                    "input": [proc if j % 2 == 0 else f"{stem}-f{j - 1}_1"],
                }
                for k in range(8):
                    attributes[f"meta{k:02d}"] = [str(rng.randrange(1 << 30))]
                ingests.append({
                    "client_id": cid, "path": f"/mnt/pass/{stem}/f{j}",
                    "uuid": f"{stem}-f{j}", "version": 1,
                    "data": "x" * rng.randrange(100, 2000),
                    "attributes": attributes,
                })
            for payload in ingests:
                user_bytes += len(payload["data"]) + sum(
                    len(a) + len(v)
                    for a, values in payload["attributes"].items() for v in values
                )
                post("ingest", "/v1/ingest", payload)
            post("flush", "/v1/flush", {})
            post("settle", "/v1/settle", {"seconds": SETTLE_S})
            files = [f"{stem}-f{j}_1" for j in range(FILES_PER_ROUND)]
            q2 = {"query": "q2", "arg": f"/mnt/pass/{stem}/f3"}
            post("q2", "/v1/query", q2, ("name", ["out-3"]))
            post("q3", "/v1/query", {"query": "q3", "arg": program},
                 sorted(files[0::2]))
            post("q4", "/v1/query", {"query": "q4", "arg": program}, sorted(files))
            post("select", "/v1/select", {
                "expression":
                    f"select * from {domain} where itemName() like '{stem}-f1%'"
            }, sorted(f for f in files if f.startswith(f"{stem}-f1")))
            post("q2-repeat", "/v1/query", q2, ("name", ["out-3"]))
        return out, user_bytes

    @staticmethod
    def _answered(kind: str, reply: dict, expected) -> bool:
        if expected is None:
            return True
        if kind in ("q2", "q2-repeat"):
            attribute, values = expected
            return reply["answer"].get(attribute) == values
        if kind == "select":
            return sorted(name for name, _attrs in reply["rows"]) == expected
        return sorted(reply["answer"]) == expected

    def repetition(self, index: int, tracer, backend: str = "local") -> Rep:
        if backend == "local":
            rep, user_bytes = self._drive(index, tracer, self.account, self.front)
            self.user_bytes += user_bytes
            rep.user_bytes = self.user_bytes
            on_disk = tree_bytes(self.root)
            rep.store_bytes = on_disk["sqlite_file_bytes"] + on_disk["fs_file_bytes"]
            return rep
        # The traced run's twin: the same requests against a sim store.
        account = CloudAccount(seed=ACCOUNT_SEED)
        front = ProvenanceFrontend(account=account)
        front.start()
        try:
            return self._drive(index, tracer, account, front)[0]
        finally:
            stop_now(front)

    def _drive(self, index, tracer, account, front) -> Tuple[Rep, int]:
        requests, user_bytes = self._requests(index, front.gateway.router.domains[0])
        connection = http.client.HTTPConnection(*front.address)
        headers = {"Content-Type": "application/json"}
        by_kind = {}
        failed = bytes_out = 0

        def call(kind, method, path, body, expected):
            nonlocal failed, bytes_out
            t0 = time.perf_counter()
            with tracer.op(kind):
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
            by_kind.setdefault(kind, []).append((time.perf_counter() - t0) * 1e3)
            if kind in READS:
                bytes_out += len(data)
            if response.status != 200 or not self._answered(
                kind, json.loads(data), expected
            ):
                failed += 1
                print(f"CHECK FAILED: {kind} {path} -> {response.status} {data[:200]!r}")

        before = account_counts(account, front.gateway)
        start = metered(account)
        try:
            started = time.perf_counter()
            for request in requests:
                call(*request)
            wall = time.perf_counter() - started
            virtual, usd, cloud_ops, cloud_bytes = cloud_cost(account, start)
            if tracer.enabled:
                # The cost of HTTP and JSON alone, outside the timed region.
                for _ in range(self.rounds):
                    call("healthz", "GET", "/healthz", None, None)
        finally:
            connection.close()

        counts = {
            key: value - before[key]
            for key, value in account_counts(account, front.gateway).items()
        }
        reads = [ms for kind in READS for ms in by_kind[kind]]
        counts.update({"http.reads": len(reads), "http.bytes_out": bytes_out})
        if tracer.enabled:
            counts.update(snapshot_counts(account))
        rep = Rep(
            ops=len(requests),
            wall_s=wall,
            latencies_ms=[
                ms for kind, samples in by_kind.items()
                if kind != "healthz" for ms in samples
            ],
            # The explicit settles are the client's pauses, not service time.
            cloud=(virtual - SETTLE_S * self.rounds, usd, cloud_ops, cloud_bytes),
            user_bytes=user_bytes,
            store_bytes=account.simpledb.index_memory_bytes(),
            failed=failed,
            counts=counts,
            samples={
                "http.ingest_ms": by_kind["ingest"],
                "http.flush_ms": by_kind["flush"],
                "http.read_ms": reads,
                "http.healthz_ms": by_kind.get("healthz", []),
            },
        )
        return rep, user_bytes

    def check(self) -> Tuple[int, int, dict]:
        """Every reply was checked as it arrived; what is left is that
        the store survives close -> reopen from its root."""
        stop_now(self.front)
        self.account.settle(SETTLE_S)
        counts = {}
        _bytes, survived = close_and_reopen(self.account, self.root, counts)
        if not survived:
            print(f"CHECK FAILED: {self.name} fingerprint changed on reopen")
        return 1, 0 if survived else 1, counts

    def close(self) -> None:
        stop_now(self.front)
        self.account.close()
        shutil.rmtree(self.root, ignore_errors=True)


def stop_now(front: ProvenanceFrontend) -> None:
    """``front.stop()`` without the wait: the stdlib server notices a
    shutdown only when its half-second poll ends or a connection arrives,
    so connections are made until the stop has gone through."""
    try:
        address = front.address
    except AssertionError:
        return  # never started, or stopped already
    stopper = threading.Thread(target=front.stop)
    stopper.start()
    while stopper.is_alive():
        try:
            socket.create_connection(address, timeout=0.1).close()
        except OSError:
            pass
        stopper.join(0.005)
