"""Unified telemetry: the metrics registry, record-lifecycle tracing,
the structured event log, and the Chrome-trace timeline exporter.

Two contracts anchor everything here:

- **Determinism** — telemetry is driven purely by the virtual clock, so
  the same seed exports byte-identical metrics dumps, trace dumps, event
  logs, and timelines.
- **Zero observational cost** — running the same workload with
  telemetry disabled leaves Q1-Q4 answers and billing byte-identical:
  observing must not perturb the simulation.

The tracing tests also pin the tentpole's redundancy argument: commit
lag derived from ``wal.logged -> commit.done`` spans equals the commit
daemons' own ``CommitRecord`` bookkeeping exactly, float for float.

A third contract is **bounded memory**: a closed trace waits in a ring
of :data:`~repro.obs.tracing.RETAINED_TRACES` and is then dropped with
its aliases, so telemetry does not grow with the number of ingests.
"""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import weakref

import pytest

import repro
from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.core import ProtocolP3
from repro.core.commit_daemon import CommitDaemon
from repro.core.protocol_base import FlushWork
from repro.obs import (
    CLIENT_EMIT,
    COMMIT_DONE,
    DAEMON_DEQUEUE,
    GATEWAY_COALESCE,
    READ_FIRST,
    SDB_PUT,
    SDB_VISIBLE,
    WAL_LOGGED,
    EventLog,
    MetricsRegistry,
    Telemetry,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    metric_key,
    write_chrome_trace,
)
from repro.obs.tracing import RETAINED_TRACES
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import FlushIntent
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.query.engine import SimpleDBQueryEngine
from repro.service import IngestGateway, ProvenanceFrontend
from repro.sim import Delay, SimKernel
from repro.workloads.base import MOUNT
from repro.workloads.fleet import (
    FLEET_PROGRAM,
    FleetWatch,
    make_fleet,
    protocol_client_process,
    reader_process,
)


def _sleeper():
    while True:
        yield Delay(1.0)


def _fleet_run(telemetry=True, seed=0, clients=2, daemons=1, schedule="steady"):
    """A miniature chaos-style kernel run: P3 clients logging into the
    shared WAL, in-loop commit daemons, one Q1 reader, drained to
    quiescence.  Returns everything the assertions need."""
    account = CloudAccount(seed=seed, telemetry=telemetry)
    protocol = ProtocolP3(account, client_id="fleet-shared")
    fleet = make_fleet(
        clients=clients,
        files_per_client=2,
        file_bytes=16 * 1024,
        extra_attributes=8,
        seed=seed,
    )
    kernel = SimKernel(account)
    kernel.scrape_every(5.0)
    watch = FleetWatch()

    daemon_objs = []

    def fresh_daemon_process():
        daemon = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
        )
        daemon_objs.append(daemon)
        return daemon.process(poll_interval=1.0)

    for index in range(daemons):
        kernel.spawn(
            fresh_daemon_process(), name=f"daemon-{index}", daemon=True
        )
    if schedule == "crashes":
        account.faults.schedule.crash_every(
            "daemon-0", every_s=15.0, start_at=8.0
        )
        account.faults.schedule.respawn(
            "daemon-0", fresh_daemon_process, delay_s=2.0
        )

    master = random.Random(seed)
    for client in fleet:
        rng = random.Random(master.randrange(1 << 30))
        kernel.spawn(
            protocol_client_process(protocol, client, 2.0, rng, watch),
            name=client.client_id,
        )
    samples = []
    kernel.spawn(
        reader_process(
            account,
            protocol.router.domains,
            FLEET_PROGRAM,
            watch,
            samples,
            interval_s=6.0,
            queries=("q1",),
            rng=random.Random(master.randrange(1 << 30)),
            label="reader-0",
        ),
        name="reader-0",
        daemon=True,
    )

    kernel.run()
    horizon = account.now + 600.0
    while (
        account.sqs.pending_count(protocol.queue_url) > 0
        and account.now < horizon
    ):
        kernel.run(until=account.now + 5.0)
    kernel.run(until=account.now + 2.0)
    account.settle(120.0)
    kernel.run(until=account.now + 12.0)
    return account, protocol, daemon_objs, kernel, samples


def _fingerprint(account, protocol):
    """(Q1-Q4 answer reprs, query billing) over the settled store."""
    engine = SimpleDBQueryEngine(
        account, domain=protocol.domain, bucket=protocol.bucket
    )
    target_path = f"{MOUNT}fleet/c0000/f000.dat"
    q1 = account.simpledb.select(f"select * from {protocol.domain}")
    ops_before = account.billing.operation_count()
    bytes_before = (
        account.billing.bytes_received() + account.billing.bytes_transmitted()
    )
    q2, _ = engine.q2_object_provenance(target_path)
    q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
    q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
    billed = (
        account.billing.operation_count() - ops_before,
        account.billing.bytes_received()
        + account.billing.bytes_transmitted()
        - bytes_before,
    )
    return (repr(q1), repr(q2), repr(q3), repr(q4)), billed


class TestMetricsRegistry:
    def test_metric_key_sorts_labels(self):
        assert metric_key("x", {}) == "x"
        assert metric_key("x", {"b": 2, "a": "y"}) == "x{a=y,b=2}"

    def test_instruments_are_get_or_create_per_labels(self):
        registry = MetricsRegistry()
        c1 = registry.counter("daemon.commits", daemon="d0")
        c2 = registry.counter("daemon.commits", daemon="d0")
        c3 = registry.counter("daemon.commits", daemon="d1")
        assert c1 is c2 and c1 is not c3
        c1.inc()
        c1.inc(2)
        c3.inc()
        registry.gauge("queue.depth", queue="log").set(7)
        snap = registry.snapshot()
        assert snap["daemon.commits{daemon=d0}"] == 3
        assert snap["daemon.commits{daemon=d1}"] == 1
        assert snap["queue.depth{queue=log}"] == 7
        assert list(snap) == sorted(snap)

    def test_histogram_nearest_rank_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("lag")
        assert h.percentile(99) is None
        for value in range(100, 0, -1):
            h.observe(float(value))
        assert h.count == 100
        assert h.p50 == 50.0
        assert h.p95 == 95.0
        assert h.p99 == 99.0
        summary = h.summary()
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["sum"] == float(sum(range(1, 101)))

    def test_gauge_fn_replaces_on_reregistration(self):
        registry = MetricsRegistry()
        registry.gauge_fn("pending", lambda: 1)
        registry.gauge_fn("pending", lambda: 2)
        assert registry.snapshot() == {"pending": 2}

    def test_scrape_builds_time_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        registry.scrape(0.0)
        counter.inc(5)
        registry.scrape(1.5)
        assert registry.series["ops"] == [(0.0, 0), (1.5, 5)]
        json.loads(registry.series_dump())

    def test_disabled_registry_is_inert_but_api_compatible(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        registry.gauge("b").set(3)
        registry.histogram("c").observe(1.0)
        registry.gauge_fn("d", lambda: 9)
        registry.scrape(1.0)
        assert registry.snapshot() == {}
        assert registry.series == {}
        assert registry.dump() == "{}"


class TestTracer:
    def test_marks_aliases_and_spans(self):
        tracer = Tracer()
        tracer.begin("txn-1", protocol="p3")
        tracer.alias("uuid-a", "txn-1")
        tracer.alias("uuid-a_3", "txn-1")
        tracer.mark("txn-1", WAL_LOGGED, 2.0)
        tracer.mark("uuid-a", COMMIT_DONE, 5.5)
        trace = tracer.get("uuid-a_3")
        assert trace is tracer.get("txn-1")
        assert trace.span(WAL_LOGGED, COMMIT_DONE) == 3.5
        assert tracer.commit_lags() == [("txn-1", 3.5)]

    def test_mark_if_traced_never_creates_traces(self):
        tracer = Tracer()
        assert not tracer.mark_if_traced("unknown", SDB_VISIBLE, 1.0)
        assert tracer.traces() == []
        tracer.begin("txn-1")
        assert tracer.mark_if_traced("txn-1", SDB_VISIBLE, 1.0)

    def test_mark_first_lands_only_once(self):
        tracer = Tracer()
        tracer.begin("txn-1")
        assert tracer.mark_first("txn-1", READ_FIRST, 4.0)
        assert not tracer.mark_first("txn-1", READ_FIRST, 9.0)
        assert tracer.get("txn-1").first[READ_FIRST] == 4.0

    def test_first_and_last_track_min_and_max(self):
        tracer = Tracer()
        tracer.begin("txn-1")
        tracer.mark("txn-1", SDB_VISIBLE, 7.0)
        tracer.mark("txn-1", SDB_VISIBLE, 3.0)
        tracer.mark("txn-1", SDB_VISIBLE, 5.0)
        trace = tracer.get("txn-1")
        assert trace.first[SDB_VISIBLE] == 3.0
        assert trace.last[SDB_VISIBLE] == 7.0

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("txn-1") is None
        tracer.mark("txn-1", WAL_LOGGED, 1.0)
        assert tracer.traces() == []
        assert tracer.as_dict() == {}


def _closed_trace(tracer, index):
    """Begin, alias, commit and close transaction ``txn-<index>``."""
    key = f"txn-{index}"
    tracer.begin(key)
    tracer.alias(f"uuid-{index}", key)
    tracer.mark(key, WAL_LOGGED, float(index))
    tracer.mark(key, COMMIT_DONE, index + 2.0)
    tracer.close(key)
    return key


def _one_record_work(index):
    """A gateway flush of one file version with one provenance record."""
    uuid = f"u{index:07d}"
    ref = NodeRef(uuid, 0)
    return FlushWork(
        primary=FlushIntent(
            path=f"/mnt/pass/f{index:06d}", uuid=uuid, ref=ref,
            blob=Blob.from_text("x"),
        ),
        bundles=[
            ProvenanceBundle(
                uuid=uuid, records=[ProvenanceRecord(ref, "type", "file")]
            )
        ],
    )


class TestRetention:
    """Open traces live until their owner closes them; closed ones wait
    in a ring of ``RETAINED_TRACES``; evicted ones are gone."""

    def test_late_marks_land_on_a_retained_trace(self):
        tracer = Tracer()
        _closed_trace(tracer, 1)
        # A fleet reader first sees the uuid after the commit...
        assert tracer.mark_first("uuid-1", READ_FIRST, 7.0)
        # ...and a duplicate delivery commits the transaction again.
        assert tracer.mark_if_traced("txn-1", COMMIT_DONE, 9.0)
        trace = tracer.get("txn-1")
        assert trace.first[COMMIT_DONE] == 3.0 and trace.last[COMMIT_DONE] == 9.0
        assert tracer.commit_lags() == [("txn-1", 2.0)]
        assert tracer.staleness() == [("txn-1", 6.0)]

    def test_eviction_drops_the_trace_its_aliases_and_late_marks(self):
        tracer = Tracer()
        for index in range(RETAINED_TRACES + 1):
            _closed_trace(tracer, index)
        assert tracer.get("txn-0") is None
        assert "uuid-0" not in tracer._aliases
        assert not tracer.mark_if_traced("txn-0", COMMIT_DONE, 99.0)
        assert not tracer.mark_first("uuid-0", READ_FIRST, 99.0)
        # No mark reopens an evicted trace, by key or by alias.
        tracer.mark("txn-0", COMMIT_DONE, 99.0)
        tracer.mark("uuid-0", READ_FIRST, 99.0)
        assert tracer.get("txn-0") is None
        assert [trace.key for trace in tracer.traces()] == [
            f"txn-{index}" for index in range(1, RETAINED_TRACES + 1)
        ]
        assert len(tracer.as_dict()) == len(tracer.commit_lags()) == RETAINED_TRACES

    def test_open_traces_stay_and_keep_their_order(self):
        tracer = Tracer()
        tracer.begin("open")
        for index in range(2 * RETAINED_TRACES):
            _closed_trace(tracer, index)
        keys = [trace.key for trace in tracer.traces()]
        assert keys[0] == "open" and len(keys) == RETAINED_TRACES + 1

    def test_begin_reopens_a_retained_trace(self):
        """The gateway keys a trace by file uuid, so a file's next flush
        begins the trace its last flush closed."""
        tracer = Tracer()
        _closed_trace(tracer, 0)
        tracer.begin("txn-0")
        for index in range(1, 2 * RETAINED_TRACES):
            _closed_trace(tracer, index)
        assert tracer.get("uuid-0") is tracer.get("txn-0") is not None

    def test_a_reused_alias_outlives_its_first_owner(self):
        """A file's uuid aliases onto each flush that carries it; evicting
        an older flush must leave the alias with the newer one."""
        tracer = Tracer()
        tracer.begin("txn-old")
        tracer.alias("uuid-shared", "txn-old")
        tracer.close("txn-old")
        tracer.begin("txn-new")
        tracer.alias("uuid-shared", "txn-new")
        for index in range(RETAINED_TRACES):
            _closed_trace(tracer, index)
        assert tracer.get("txn-old") is None
        assert tracer.get("uuid-shared") is tracer.get("txn-new")

    def test_closing_twice_or_an_unknown_key_does_nothing(self):
        tracer = Tracer()
        tracer.close("never-begun")
        _closed_trace(tracer, 0)
        tracer.close("uuid-0")
        assert list(tracer._closed) == ["txn-0"]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the gateway keys a flush's trace by the file uuid, so a file "
        "written again and again reopens one trace that is never evicted "
        "(ROADMAP item 6)",
    )
    def test_a_hot_uuid_keeps_its_trace_bounded(self):
        """2 000 versions of one file through the HTTP front end's ingest
        and flush handlers, one flush each.  The trace the uuid resolves
        to holds 6 000 marks and 2 001 aliases today."""
        front = ProvenanceFrontend(account=CloudAccount(seed=0))
        for version in range(2000):
            front._handle_post("/v1/ingest", {
                "client_id": "c0",
                "path": "/mnt/pass/hot",
                "uuid": "hot",
                "version": version,
                "attributes": {"type": ["file"]},
            })
            front._handle_post("/v1/flush", {})
        trace = front.account.telemetry.tracer.get("hot")
        assert len(trace.marks) <= RETAINED_TRACES
        assert len(trace.aliases) <= RETAINED_TRACES

    def test_gateway_windows_keep_the_tracer_bounded(self):
        account = CloudAccount(seed=0)
        gateway = IngestGateway(account)
        tracer = account.telemetry.tracer
        for window in range(10 * RETAINED_TRACES):
            gateway.submit("c0", _one_record_work(window))
            gateway.flush_pending()
            # One trace per flush, aliased by its uuid and its item name.
            assert len(tracer.traces()) <= RETAINED_TRACES
            assert len(tracer._aliases) <= 2 * RETAINED_TRACES
        newest = tracer.get(f"u{10 * RETAINED_TRACES - 1:07d}")
        assert {CLIENT_EMIT, GATEWAY_COALESCE, SDB_VISIBLE} <= set(newest.first)

    def test_commit_daemons_close_what_they_commit(self):
        account, _, daemon_objs, _, _ = _fleet_run(seed=0)
        tracer = account.telemetry.tracer
        committed = {r.txn_id for d in daemon_objs for r in d.commit_log}
        assert committed and set(tracer._closed) == committed

    def test_the_largest_chaos_sweep_run_fits_in_the_ring(self):
        """``chaos_slo``'s per-transaction trace lags equal the commit
        logs only while every transaction of a run is retained."""
        golden = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks", "golden",
            "chaos_slo.json",
        )
        with open(golden) as handle:
            points = json.load(handle)["points"]
        assert all(point["trace_lags_match"] for point in points)
        assert max(point["flushes"] for point in points) <= RETAINED_TRACES


#: The directory ``repro`` is imported from, for child interpreters.
_SRC = os.path.dirname(os.path.abspath(list(repro.__path__)[0]))
_SOAK = os.path.join(
    os.path.dirname(__file__), os.pardir, "tools", "telemetry_soak.py"
)


class TestBoundedMemory:
    def test_telemetry_overhead_does_not_grow_with_ingests(self):
        """``tools/telemetry_soak.py`` at 2 000 and 8 000 ingests, each
        mode in a fresh interpreter with a fixed hash seed, side by side.
        Telemetry costs a constant: the ring, the metrics registry.  A
        tracer that kept every trace added about 1.1 KB per ingest."""
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="0")
        runs = {
            mode: subprocess.Popen(
                [sys.executable, _SOAK, mode, "2000", "8000"],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for mode in ("on", "off")
        }
        heap = {}
        for mode, run in runs.items():
            out, _ = run.communicate(timeout=300)
            assert run.returncode == 0
            heap[mode] = [int(n) for n in out.split()]
        gap_2000, gap_8000 = (on - off for on, off in zip(heap["on"], heap["off"]))
        assert abs(gap_8000 - gap_2000) <= 64 * 1024, (gap_2000, gap_8000)
        assert gap_8000 < 1024 * 1024, gap_8000


class TestFrozenExports:
    """Retention changes when a trace is dropped, never what a retained
    trace holds: these digests were taken before the tracer had a ring."""

    def test_crash_run_timeline_and_traces(self, portable_timeline):
        account = _fleet_run(schedule="crashes", seed=0)[0]
        timeline = portable_timeline(chrome_trace(account.telemetry))
        traces = json.dumps(account.telemetry.tracer.as_dict(), sort_keys=True)
        assert hashlib.sha256(timeline.encode()).hexdigest() == (
            "13e54bd32f50ca17b61072e2b7544696c7c8317c754199b0495df24fbdbe2c3a"
        )
        assert hashlib.sha256(traces.encode()).hexdigest() == (
            "d744df1b3b6ec7bb909c9a018685c48616cb437325dc7d2e92f8c1d9b13d4ccd"
        )


class TestEventLog:
    def test_sequence_numbers_give_a_total_order(self):
        log = EventLog()
        log.emit("a", 1.0, x=1)
        log.emit("b", 1.0)
        assert [e.seq for e in log] == [0, 1]
        assert log.events[0]["x"] == 1
        assert log.events[0].get("missing", 7) == 7

    def test_of_kind_exact_and_prefix(self):
        log = EventLog()
        log.emit("fault.crash", 1.0)
        log.emit("fault.respawn", 2.0)
        log.emit("proc.done", 3.0)
        assert len(log.of_kind("fault.crash")) == 1
        assert len(log.of_kind("fault.")) == 2
        assert len(log.of_kind("proc.done", "fault.")) == 3

    def test_jsonl_round_trips(self, tmp_path):
        log = EventLog()
        log.emit("fault.crash", 1.5, target="daemon-0", incarnation=0)
        path = log.write_jsonl(str(tmp_path / "events.jsonl"))
        lines = open(path).read().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["fault.crash"]

    def test_disabled_log_records_nothing(self):
        log = EventLog(enabled=False)
        assert log.emit("x", 1.0) is None
        assert len(log) == 0 and log.to_jsonl() == ""


class TestKernelFaultEvents:
    def test_crash_and_respawn_events_carry_target_incarnation_time(self):
        account, _, _, kernel, _ = _fleet_run(schedule="crashes", seed=0)
        crashes = account.telemetry.events.of_kind("fault.crash")
        respawns = account.telemetry.events.of_kind("fault.respawn")
        assert crashes and respawns
        for event in crashes:
            assert event["target"] == "daemon-0"
            assert isinstance(event["incarnation"], int)
            assert event.t >= 8.0
        # Each respawn brings up the next incarnation of the same name.
        assert [e["incarnation"] for e in respawns] == list(
            range(1, len(respawns) + 1)
        )
        for event in respawns:
            assert event["target"] == "daemon-0"
            assert event.t > event["died_at"]
        # The kernel exposes the same stream directly.
        assert kernel.fault_events == account.telemetry.events.of_kind("fault.")

    def test_degradation_window_emits_open_and_close(self):
        account = CloudAccount(seed=0)
        account.faults.schedule.degrade(5.0, 9.0, add_latency_s=0.5)
        kernel = SimKernel(account)
        kernel.spawn(_sleeper(), name="svc", daemon=True)
        kernel.run(until=20.0)
        opened = account.telemetry.events.of_kind("fault.degrade.open")
        closed = account.telemetry.events.of_kind("fault.degrade.close")
        assert len(opened) == len(closed) == 1
        assert opened[0].t == 5.0 and closed[0].t == 9.0
        assert opened[0]["add_latency_s"] == 0.5

    def test_spawn_and_done_lifecycle_events(self):
        account = CloudAccount(seed=0)
        kernel = SimKernel(account)

        def finite():
            yield Delay(1.0)

        kernel.spawn(finite(), name="one-shot")
        kernel.run()
        spawns = account.telemetry.events.of_kind("proc.spawn")
        dones = account.telemetry.events.of_kind("proc.done")
        assert [e["name"] for e in spawns] == ["one-shot"]
        assert [e["name"] for e in dones] == ["one-shot"]


class TestLifecycleTracing:
    def test_trace_spans_equal_commit_record_lags_exactly(self):
        account, _, daemon_objs, _, _ = _fleet_run(seed=0)
        tracer = account.telemetry.tracer
        records = [r for d in daemon_objs for r in d.commit_log]
        assert records
        for record in records:
            trace = tracer.get(record.txn_id)
            assert trace is not None
            # Independent derivations of the same instants: the client
            # marked wal.logged from its send-batch finish times; the
            # daemon stamped logged_at from the messages' sent_at.
            assert trace.first[WAL_LOGGED] == record.logged_at
            assert trace.first[COMMIT_DONE] == record.committed_at
        assert dict(tracer.commit_lags()) == {
            r.txn_id: r.lag for r in records
        }

    def test_stages_happen_in_lifecycle_order(self):
        account, _, daemon_objs, _, _ = _fleet_run(seed=0)
        tracer = account.telemetry.tracer
        for daemon in daemon_objs:
            for record in daemon.commit_log:
                trace = tracer.get(record.txn_id)
                first = trace.first
                chain = [
                    CLIENT_EMIT, WAL_LOGGED, DAEMON_DEQUEUE, SDB_PUT,
                    COMMIT_DONE,
                ]
                times = [first[stage] for stage in chain]
                assert times == sorted(times), record.txn_id
                # Visibility overlaps commit completion (each item turns
                # visible at its own put + propagation delay, possibly
                # before the commit record is stamped), but no item can
                # be visible before the daemon started the commit.
                assert first[SDB_VISIBLE] >= first[DAEMON_DEQUEUE]
                assert trace.last[SDB_VISIBLE] >= first[SDB_VISIBLE]

    def test_reader_marks_first_observation_and_staleness_falls_out(self):
        account, _, _, _, samples = _fleet_run(seed=0)
        staleness = account.telemetry.tracer.staleness()
        assert staleness
        assert all(lag >= 0.0 for _, lag in staleness)
        assert any(s.query == "q1" for s in samples)


class TestZeroCostAndDeterminism:
    def test_same_seed_exports_are_byte_identical(self):
        first = _fleet_run(schedule="crashes", seed=0)[0]
        second = _fleet_run(schedule="crashes", seed=0)[0]
        assert first.telemetry.metrics.dump() == second.telemetry.metrics.dump()
        assert (
            first.telemetry.metrics.series_dump()
            == second.telemetry.metrics.series_dump()
        )
        assert (
            first.telemetry.tracer.as_dict()
            == second.telemetry.tracer.as_dict()
        )
        assert (
            first.telemetry.events.to_jsonl()
            == second.telemetry.events.to_jsonl()
        )
        assert chrome_trace_json(first.telemetry) == chrome_trace_json(
            second.telemetry
        )

    def test_telemetry_off_leaves_answers_and_billing_byte_identical(self):
        on_account, on_protocol, _, _, _ = _fleet_run(telemetry=True, seed=0)
        off_account, off_protocol, _, _, _ = _fleet_run(telemetry=False, seed=0)
        assert not off_account.telemetry.enabled
        assert off_account.telemetry.metrics.snapshot() == {}
        assert off_account.telemetry.tracer.traces() == []
        assert len(off_account.telemetry.events) == 0

        on_answers, on_billed = _fingerprint(on_account, on_protocol)
        off_answers, off_billed = _fingerprint(off_account, off_protocol)
        assert on_answers == off_answers
        assert on_billed == off_billed
        assert (
            on_account.billing.operation_count()
            == off_account.billing.operation_count()
        )
        assert on_account.billing.cost() == off_account.billing.cost()

    def test_seed_changes_the_telemetry(self):
        a = _fleet_run(seed=0)[0]
        b = _fleet_run(seed=1)[0]
        assert a.telemetry.metrics.dump() != b.telemetry.metrics.dump()


class TestTimelineExport:
    def test_chrome_trace_shape_for_a_crash_respawn_run(self):
        account, _, _, _, _ = _fleet_run(schedule="crashes", seed=0)
        doc = chrome_trace(account.telemetry)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "b", "n", "e", "C"} <= phases

        # Respawned incarnations get their own named lanes.
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "daemon-0" in lane_names
        assert "daemon-0#1" in lane_names
        assert "faults" in lane_names

        # Fault instants land on the dedicated tid-0 lane.
        fault_instants = [
            e for e in events if e["ph"] == "i" and e["cat"] == "fault"
        ]
        assert fault_instants
        assert all(e["tid"] == 0 for e in fault_instants)

        # Record spans carry the lifecycle stage ticks.
        stage_ticks = {e["name"] for e in events if e["ph"] == "n"}
        assert WAL_LOGGED in stage_ticks and COMMIT_DONE in stage_ticks

        # The scraper's counter tracks made it in; every timed event
        # carries a non-negative virtual-microsecond timestamp.
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        for e in events:
            if "ts" in e:
                assert e["ts"] >= 0

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        account, _, _, _, _ = _fleet_run(seed=0)
        path = write_chrome_trace(
            account.telemetry, str(tmp_path / "trace.json")
        )
        doc = json.load(open(path))
        assert doc["traceEvents"]
        assert doc["otherData"]["clock"] == "virtual"


class TestTelemetryHub:
    def test_instance_ids_are_per_hub_and_dense(self):
        hub = Telemetry()
        assert [hub.instance_id("daemon") for _ in range(3)] == [0, 1, 2]
        assert hub.instance_id("gateway") == 0
        fresh = Telemetry()
        assert fresh.instance_id("daemon") == 0

    def test_coerce_accepts_hub_bool_and_none(self):
        hub = Telemetry(enabled=False)
        assert Telemetry.coerce(hub) is hub
        assert Telemetry.coerce(None).enabled
        assert Telemetry.coerce(True).enabled
        assert not Telemetry.coerce(False).enabled

    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_closed_account_is_freed_without_the_cycle_collector(self, backend):
        """Callback gauges close over state, not their owners: a bound
        method in the registry would tie the service (or gateway) and
        the telemetry hub into a cycle that only ``gc.collect()`` frees,
        so a run that builds many accounts would hold every old one."""
        gc.collect()
        gc.disable()
        try:
            account = CloudAccount(telemetry=True, backend=backend)
            gateway = IngestGateway(account)
            domain = gateway.router.domains[0]
            account.simpledb.put_attributes(domain, "i", [("a", "v")])
            url = account.sqs.create_queue("wal")
            account.sqs.send_message(url, "m")
            snapshot = account.telemetry.metrics.snapshot()
            assert any("sqs.queue_depth" in key for key in snapshot)
            refs = [
                weakref.ref(account.simpledb),
                weakref.ref(account.sqs),
                weakref.ref(gateway),
            ]
            account.close()
            del account, gateway
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
