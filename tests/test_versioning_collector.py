"""Tests for causality-based versioning and the PASS collector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.provenance.graph import NodeRef
from repro.provenance.pass_collector import (
    ComputeIntent,
    DeleteIntent,
    FlushIntent,
    PassCollector,
    ReadIntent,
)
from repro.provenance.syscalls import TraceBuilder
from repro.provenance.versioning import VersionManager

from dag_oracle import assert_dag, emitted_index

MOUNT = "/mnt/s3/"


class TestVersionManager:
    def test_objects_start_at_zero(self):
        manager = VersionManager()
        assert manager.current("f") == NodeRef("f", 0)

    def test_same_writer_coalesces(self):
        manager = VersionManager()
        first = manager.on_write("p", "f")
        second = manager.on_write("p", "f")
        assert first.ref == second.ref == NodeRef("f", 0)
        assert not second.new_version

    def test_write_after_read_bumps(self):
        manager = VersionManager()
        manager.on_write("p", "f")
        manager.on_read("q", "f")  # freeze
        decision = manager.on_write("p", "f")
        assert decision.new_version
        assert decision.ref == NodeRef("f", 1)
        assert decision.previous == NodeRef("f", 0)

    def test_different_writer_bumps(self):
        manager = VersionManager()
        manager.on_write("p", "f")
        decision = manager.on_write("q", "f")
        assert decision.new_version
        assert decision.ref.version == 1

    def test_freeze_on_flush_bumps_next_write(self):
        manager = VersionManager()
        manager.on_write("p", "f")
        manager.freeze("f")
        decision = manager.on_write("p", "f")
        assert decision.new_version

    def test_freeze_untouched_object_is_noop(self):
        manager = VersionManager()
        manager.freeze("f")
        decision = manager.on_write("p", "f")
        assert not decision.new_version

    def test_reader_taint_reversions_writer(self):
        manager = VersionManager()
        manager.mark_process_wrote("p")
        decision = manager.on_reader_taint("p")
        assert decision.new_version
        assert decision.ref == NodeRef("p", 1)

    def test_reader_taint_noop_without_writes(self):
        manager = VersionManager()
        decision = manager.on_reader_taint("p")
        assert not decision.new_version

    def test_version_count(self):
        manager = VersionManager()
        assert manager.version_count("f") == 0
        manager.on_write("p", "f")
        manager.freeze("f")
        manager.on_write("p", "f")
        assert manager.version_count("f") == 2


class TestCollectorBasics:
    def test_spawn_creates_proc_node_with_attributes(self):
        builder = TraceBuilder()
        pid = builder.spawn(
            "tool", argv=["tool", "-v"], env=(("K", "V"),), exec_path="/bin/tool"
        )
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        uuid = collector.process_uuid(pid)
        node = emitted_index(builder.trace).attributes(NodeRef(uuid, 0))
        bundle = collector.pending_bundle(uuid)
        attributes = {r.attribute for r in bundle.records}
        assert node["name"] == ["tool"]
        assert {"type", "name", "pid", "argv", "env", "exec"} <= attributes

    def test_read_creates_input_edge(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.read(pid, "/in", 10)
        collector = PassCollector()
        intents = collector.feed_trace(builder.trace)
        assert isinstance(intents[0], ReadIntent)
        proc = collector.versions.current(collector.process_uuid(pid))
        file_ref = collector.versions.current(collector.file_uuid("/in"))
        index = emitted_index(builder.trace)
        assert str(file_ref) in index.attributes(proc)["input"]
        assert file_ref in index.ancestors_direct(proc)

    def test_write_close_emits_flush_intent(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.write_close(pid, "/out", 500)
        collector = PassCollector()
        intents = collector.feed_trace(builder.trace)
        flushes = [i for i in intents if isinstance(i, FlushIntent)]
        assert len(flushes) == 1
        assert flushes[0].blob.size == 500
        assert flushes[0].path == "/out"

    def test_close_of_read_only_file_is_silent(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.close(pid, "/never-written")
        collector = PassCollector()
        assert collector.feed_trace(builder.trace) == []

    def test_unlink_emits_delete_intent(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.write_close(pid, "/out", 10)
        builder.unlink(pid, "/out")
        collector = PassCollector()
        intents = collector.feed_trace(builder.trace)
        assert isinstance(intents[-1], DeleteIntent)

    def test_compute_passthrough(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.compute(pid, 2.5, memory_bound=True)
        collector = PassCollector()
        intents = collector.feed_trace(builder.trace)
        assert intents == [ComputeIntent(2.5, True)]

    def test_event_for_unspawned_pid(self):
        builder = TraceBuilder()
        builder.read(999, "/x", 1)
        with pytest.raises(TraceError):
            PassCollector().feed_trace(builder.trace)


class TestCollectorVersioning:
    def test_read_after_write_reversions_process(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.write(pid, "/out", 10)
        builder.read(pid, "/in", 5)
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        uuid = collector.process_uuid(pid)
        assert collector.versions.current(uuid).version == 1
        # The new process version carries a version-of edge.
        index = emitted_index(builder.trace)
        assert NodeRef(uuid, 1) in index.refs()
        assert index.attributes(NodeRef(uuid, 1))["version-of"] == [f"{uuid}_0"]

    def test_flush_freezes_file_version(self):
        builder = TraceBuilder()
        pid = builder.spawn("p")
        builder.write(pid, "/out", 10)
        builder.flush(pid, "/out")
        builder.write(pid, "/out", 20)
        builder.close(pid, "/out")
        collector = PassCollector()
        intents = collector.feed_trace(builder.trace)
        flushes = [i for i in intents if isinstance(i, FlushIntent)]
        assert flushes[0].ref.version == 0
        assert flushes[1].ref.version == 1

    def test_transitive_dependency_chain(self):
        """read A -> write B; read B -> write C: C transitively depends
        on A through the processes (the paper's §2.1 example)."""
        builder = TraceBuilder()
        p1 = builder.spawn("p1")
        builder.read(p1, "/a", 1)
        builder.write_close(p1, "/b", 1)
        p2 = builder.spawn("p2")
        builder.read(p2, "/b", 1)
        builder.write_close(p2, "/c", 1)
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        c_ref = collector.versions.current(collector.file_uuid("/c"))
        ancestors = emitted_index(builder.trace).ancestors(c_ref)
        assert collector.versions.current(collector.file_uuid("/a")) in ancestors

    def test_pending_closure_is_ancestors_first(self):
        builder = TraceBuilder()
        pid = builder.spawn("p", exec_path="/bin/p")
        builder.read(pid, "/in", 1)
        builder.write_close(pid, "/out", 1)
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        out_uuid = collector.file_uuid("/out")
        bundles = collector.pop_pending_closure(out_uuid)
        order = [b.uuid for b in bundles]
        # The primary object comes last; its ancestors come first.
        assert order[-1] == out_uuid
        assert collector.file_uuid("/in") in order
        # Popping removed the bundles.
        assert collector.pending_bundle(out_uuid) is None

    def test_closure_includes_only_reachable(self):
        builder = TraceBuilder()
        p1 = builder.spawn("p1")
        builder.write_close(p1, "/a", 1)
        p2 = builder.spawn("p2")
        builder.write_close(p2, "/b", 1)
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        bundles = collector.pop_pending_closure(collector.file_uuid("/a"))
        uuids = {b.uuid for b in bundles}
        assert collector.file_uuid("/b") not in uuids
        assert collector.process_uuid(p2) not in uuids

    def test_repeated_writes_record_one_input_per_writer(self):
        builder = TraceBuilder()
        pid = builder.spawn("logger")
        for size in (10, 20, 30):
            builder.write(pid, "/log", size)
        other = builder.spawn("other")
        builder.write(other, "/log", 40)
        builder.write(other, "/log", 50)
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        index = emitted_index(builder.trace)
        log = collector.file_uuid("/log")
        assert index.attributes(NodeRef(log, 0))["input"] == [
            f"{collector.process_uuid(pid)}_0"
        ]
        assert index.attributes(NodeRef(log, 1))["input"] == [
            f"{collector.process_uuid(other)}_0"
        ]

    def test_deep_pending_closure(self):
        """A 5 000-stage pipeline of local files stays pending until one
        mount flush pops it whole, ancestors first, without recursing."""
        stages = 5_000
        builder = TraceBuilder()
        first = builder.spawn("stage-0")
        builder.write_close(first, "/tmp/stage-0", 10)
        for stage in range(1, stages + 1):
            pid = builder.spawn(f"stage-{stage}")
            builder.read(pid, f"/tmp/stage-{stage - 1}", 10)
            builder.write_close(pid, f"/tmp/stage-{stage}", 10)
        pid = builder.spawn("publish")
        builder.read(pid, f"/tmp/stage-{stages}", 10)
        builder.write_close(pid, f"{MOUNT}result", 10)
        collector = PassCollector()
        collector.feed_trace(builder.trace)
        bundles = collector.pop_pending_closure(collector.file_uuid(f"{MOUNT}result"))
        # Every stage's process and file, the publisher, and the result.
        assert len(bundles) == 2 * (stages + 1) + 2
        order = [b.uuid for b in bundles]
        assert order[:2] == [
            collector.process_uuid(first), collector.file_uuid("/tmp/stage-0"),
        ]
        assert order[-1] == collector.file_uuid(f"{MOUNT}result")
        position = {uuid: i for i, uuid in enumerate(order)}
        for bundle in bundles:
            for xref in bundle.xrefs():
                assert position[xref.uuid] <= position[bundle.uuid]
        assert collector.pending_bundle(order[0]) is None

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "flush"]),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=40,
        )
    )
    def test_collector_graph_always_acyclic(self, operations):
        """Whatever interleaving of reads/writes/flushes two processes
        perform over a few files, the provenance stays acyclic (the
        versioning rules' core guarantee): the DAG oracle sorts every
        record the collection emitted, flushed or still pending."""
        builder = TraceBuilder()
        pids = [builder.spawn("fuzz-a"), builder.spawn("fuzz-b")]
        paths = [f"{MOUNT}f0", f"{MOUNT}f1", "/local/f2", "/local/f3"]
        for op, proc, index in operations:
            if op == "read":
                builder.read(pids[proc], paths[index], 1)
            elif op == "write":
                builder.write(pids[proc], paths[index], 10)
            else:
                builder.flush(pids[proc], paths[index])
        index = emitted_index(builder.trace)
        assert_dag(index)
        for ref in index.refs():
            assert ref not in index.ancestors(ref)
