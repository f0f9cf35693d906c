"""Tests for the query engines, ancestry index, and search ranking."""

import pytest

from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.core import PAS3fs, ProtocolP1, ProtocolP2, collect
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceRecord
from repro.provenance.syscalls import TraceBuilder
from repro.query import (
    ProvenanceIndex,
    S3QueryEngine,
    SimpleDBQueryEngine,
    provenance_ranked_search,
    query_engine_for,
)

MOUNT = "/mnt/s3/"


def _pipeline_account(protocol_cls):
    account = CloudAccount(consistency=ConsistencyModel.STRICT, seed=4)
    protocol = protocol_cls(account)
    fs = PAS3fs(account, protocol)
    builder = TraceBuilder()
    blast = builder.spawn("blastall", argv=["blastall"], exec_path="/bin/blastall")
    builder.read(blast, "/local/db", 100)
    builder.write_close(blast, f"{MOUNT}hits", 5000)
    sort = builder.spawn("sort", exec_path="/bin/sort")
    builder.read(sort, f"{MOUNT}hits", 5000)
    builder.write_close(sort, f"{MOUNT}sorted", 5000)
    replay = collect(builder.trace)
    fs.run(replay)
    fs.finalize()
    account.settle(300.0)
    return account, replay


class TestProvenanceIndex:
    def _index(self):
        index = ProvenanceIndex()
        a, p, b = NodeRef("a", 0), NodeRef("p", 0), NodeRef("b", 0)
        index.add(p, "type", "proc")
        index.add(p, "name", "tool")
        index.add(a, "type", "file")
        index.add(a, "input", str(p))
        index.add(b, "type", "file")
        index.add(b, "input", str(a))
        return index, a, p, b

    def test_find(self):
        index, a, p, b = self._index()
        assert index.find("name", "tool") == [p]
        assert index.find("type", "file") == [a, b]

    def test_closures(self):
        index, a, p, b = self._index()
        assert index.ancestors(b) == {a, p}
        assert index.descendants(p) == {a, b}
        assert index.direct_dependents(p) == {a}
        assert index.ancestors_direct(b) == {a}

    def test_non_xref_values_do_not_create_edges(self):
        index = ProvenanceIndex()
        index.add(NodeRef("x", 0), "name", "a_1")  # looks like a ref
        assert index.ancestors(NodeRef("x", 0)) == set()


@pytest.mark.parametrize(
    "protocol_cls,engine_cls",
    [(ProtocolP1, S3QueryEngine), (ProtocolP2, SimpleDBQueryEngine)],
)
class TestQueriesBothBackends:
    def test_q1_returns_all_nodes(self, protocol_cls, engine_cls):
        account, replay = _pipeline_account(protocol_cls)
        engine = engine_cls(account)
        index, stats = engine.q1_all_provenance()
        # Both processes and both mount files (plus the local input and
        # process re-versions) are present.
        names = {
            n for ref in index.refs() for n in index.attributes(ref).get("name", [])
        }
        assert {f"{MOUNT}hits", f"{MOUNT}sorted", "blastall", "sort"} <= names
        assert stats.operations > 0

    def test_q2_returns_object_provenance(self, protocol_cls, engine_cls):
        account, replay = _pipeline_account(protocol_cls)
        engine = engine_cls(account)
        attributes, stats = engine.q2_object_provenance(f"{MOUNT}hits")
        assert "sha1" in attributes
        assert f"{MOUNT}hits" in attributes.get("name", [])
        assert stats.operations >= 2  # HEAD + at least one lookup

    def test_q3_finds_direct_outputs(self, protocol_cls, engine_cls):
        account, replay = _pipeline_account(protocol_cls)
        engine = engine_cls(account)
        outputs, _ = engine.q3_direct_outputs("blastall")
        uuids = {ref.uuid for ref in outputs}
        assert replay.file_uuids[f"{MOUNT}hits"] in uuids
        assert replay.file_uuids[f"{MOUNT}sorted"] not in uuids

    def test_q4_finds_transitive_descendants(self, protocol_cls, engine_cls):
        account, replay = _pipeline_account(protocol_cls)
        engine = engine_cls(account)
        descendants, _ = engine.q4_all_descendants("blastall")
        uuids = {ref.uuid for ref in descendants}
        assert replay.file_uuids[f"{MOUNT}hits"] in uuids
        assert replay.file_uuids[f"{MOUNT}sorted"] in uuids

    def test_parallel_matches_sequential(self, protocol_cls, engine_cls):
        account, replay = _pipeline_account(protocol_cls)
        engine = engine_cls(account)
        seq, _ = engine.q4_all_descendants("blastall", parallel=False)
        par, _ = engine.q4_all_descendants("blastall", parallel=True)
        assert seq == par


class TestQueryEngineFactory:
    def test_routing(self):
        account = CloudAccount()
        assert isinstance(query_engine_for("p1", account), S3QueryEngine)
        assert isinstance(query_engine_for("p2", account), SimpleDBQueryEngine)
        assert isinstance(query_engine_for("p3", account), SimpleDBQueryEngine)
        with pytest.raises(ValueError):
            query_engine_for("s3fs", account)


class TestSearchRanking:
    def _index(self):
        index = ProvenanceIndex()
        note = NodeRef("note", 0)
        proc = NodeRef("proc", 0)
        fig = NodeRef("fig", 0)
        junk = NodeRef("junk", 0)
        index.add(note, "type", "file")
        index.add(proc, "type", "proc")
        index.add(proc, "input", str(note))
        index.add(fig, "type", "file")
        index.add(fig, "input", str(proc))
        index.add(junk, "type", "file")
        return index, note, fig, junk

    def test_derived_files_surface(self):
        index, note, fig, junk = self._index()
        ranked = provenance_ranked_search(index, {note: 1.0}, iterations=3)
        refs = [ref for ref, _ in ranked]
        assert note in refs
        assert fig in refs
        assert refs.index(note) < refs.index(fig)

    def test_unconnected_files_get_no_weight(self):
        index, note, fig, junk = self._index()
        ranked = dict(provenance_ranked_search(index, {note: 1.0}, iterations=3))
        assert junk not in ranked or ranked[junk] == 0.0

    def test_zero_iterations_is_content_only(self):
        index, note, fig, junk = self._index()
        ranked = provenance_ranked_search(index, {note: 1.0}, iterations=0)
        assert ranked[0][0] == note
        assert all(weight == 0 for ref, weight in ranked[1:])

    def test_negative_iterations_rejected(self):
        index, note, _, _ = self._index()
        with pytest.raises(ValueError):
            provenance_ranked_search(index, {note: 1.0}, iterations=-1)


@pytest.mark.parametrize("backend", ["sim", "local"])
class TestSimpleDBSpillRead:
    """Q2 over an item that points at S3: one value spilled for size and
    the records past the item's pair limit in an overflow object."""

    def test_q2_fetches_every_spill_and_matches_the_reader(self, backend):
        from repro.cloud.blob import Blob
        from repro.core.detection import SimpleDBProvenanceReader
        from repro.core.protocol_base import FlushWork
        from repro.core.sdb_items import spill_keys
        from repro.provenance.pass_collector import FlushIntent
        from repro.provenance.records import ProvenanceBundle

        account = CloudAccount(
            consistency=ConsistencyModel.STRICT, seed=4, backend=backend
        )
        try:
            protocol = ProtocolP2(account)
            ref = NodeRef("f-2", 0)
            big = "E" * 2048
            bundle = ProvenanceBundle(uuid="f-2")
            bundle.add(ProvenanceRecord(ref, "env", big))
            for index in range(300):
                bundle.add(ProvenanceRecord(ref, "input", NodeRef(f"p-{index}", 0)))
            path = f"{MOUNT}z"
            protocol.flush(FlushWork(
                primary=FlushIntent(
                    path=path, uuid="f-2", ref=ref, blob=Blob.synthetic(10, "z@0")
                ),
                bundles=[bundle],
            ))
            account.settle(300.0)
            keys = spill_keys(account.simpledb.peek_item(protocol.domain, str(ref)))
            assert len(keys) == 2  # the 2 KB value and the overflow object

            before = account.billing.snapshot()
            answer, stats = SimpleDBQueryEngine(account).q2_object_provenance(path)
            after = account.billing.snapshot()

            reader = SimpleDBProvenanceReader(account, protocol.domain, protocol.bucket)
            assert answer == reader.peek_attributes(ref)
            assert answer["env"] == [big]
            assert answer["input"] == [f"p-{index}_0" for index in range(300)]
            issued = {
                (service, op): count - before.get(service, {}).get(op, 0)
                for service, ops in after.items()
                for op, count in ops.items()
                if count != before.get(service, {}).get(op, 0)
            }
            assert issued == {
                ("s3", "HEAD"): 1,
                ("simpledb", "Select"): 1,
                ("s3", "GET"): len(keys),
            }
            assert stats.operations == 1 + 1 + len(keys)
        finally:
            account.close()
