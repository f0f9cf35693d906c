"""Tests for the workload generators and the microbenchmark tool."""

import os

import pytest

from repro.workloads import (
    make_blast_workload,
    make_challenge_workload,
    make_linux_compile_records,
    make_nightly_workload,
    run_microbenchmark,
)
from repro.workloads.base import MOUNT
from repro.workloads.linux_compile import records_total_bytes
from repro.workloads.microbench import capture_flush_works

from dag_oracle import assert_dag, derivation_depth, emitted_index

MB = 1024 * 1024

#: Workload traces the DAG oracle sorts.  ``REPRO_DAG_ORACLE_SIZE=full``
#: selects the generators' full sizes (Blast: 28 jobs x 600 queries,
#: 51 858 events), as the nightly CI job does; the default is the sizes
#: the depth tests below pin.
DAG_ORACLE_TRACES = {
    "tier1": {
        "nightly": lambda: make_nightly_workload(nights=5),
        "blast": lambda: make_blast_workload(jobs=2, queries_per_job=30),
        "challenge": lambda: make_challenge_workload(sessions=2),
    },
    "full": {
        "nightly": make_nightly_workload,
        "blast": make_blast_workload,
        "challenge": make_challenge_workload,
    },
}[os.environ.get("REPRO_DAG_ORACLE_SIZE", "tier1")]


@pytest.mark.parametrize("name", sorted(DAG_ORACLE_TRACES))
def test_dag_oracle_sorts_workload_provenance(name):
    """Everything collecting a workload trace emits forms a DAG."""
    assert_dag(emitted_index(DAG_ORACLE_TRACES[name]().trace))


class TestNightly:
    def test_shape(self):
        workload = make_nightly_workload(nights=5, tarball_bytes=10 * MB)
        depth = derivation_depth(emitted_index(workload.trace))
        # Nearly flat provenance: the paper's defining characteristic.
        assert depth <= 6
        assert depth == 5
        # One tarball + checksum + log per night.
        mount_paths = [
            p for p in workload.trace.file_paths() if p.startswith(MOUNT)
        ]
        assert len(mount_paths) == 15

    def test_bytes_scale_with_nights(self):
        small = make_nightly_workload(nights=2, tarball_bytes=10 * MB)
        large = make_nightly_workload(nights=4, tarball_bytes=10 * MB)
        assert (
            large.trace.total_bytes_written() > small.trace.total_bytes_written()
        )

    def test_deterministic(self):
        a = make_nightly_workload(nights=3)
        b = make_nightly_workload(nights=3)
        assert a.trace.events == b.trace.events


class TestBlast:
    def test_shape(self):
        workload = make_blast_workload(jobs=2, queries_per_job=30)
        index = emitted_index(workload.trace)
        # Depth ~5 pipeline (deeper than nightly, shallower than
        # challenge) once version chains are factored out.
        depth = derivation_depth(index)
        assert 4 <= depth <= 12
        assert depth == 8
        # The query loop generates many process versions (P2's burden).
        proc_versions = sum(1 for ref in index.refs() if ref.uuid.startswith("p-"))
        assert proc_versions > 50

    def test_compute_is_mostly_memory_bound(self):
        workload = make_blast_workload(jobs=2, queries_per_job=30)
        from repro.provenance.syscalls import ComputeEvent

        memory_bound = sum(
            e.seconds
            for e in workload.trace.events
            if isinstance(e, ComputeEvent) and e.memory_bound
        )
        total = workload.trace.total_compute_seconds()
        assert memory_bound > 0.7 * total

    def test_staged_inputs_declared(self):
        workload = make_blast_workload(jobs=1, queries_per_job=10)
        assert any(p.startswith(MOUNT) for p in workload.staged_inputs)


class TestChallenge:
    def test_depth_matches_paper(self):
        workload = make_challenge_workload(sessions=2)
        # The paper: maximum path length of eleven.
        depth = derivation_depth(emitted_index(workload.trace))
        assert 9 <= depth <= 13
        assert depth == 11

    def test_outputs_per_session(self):
        workload = make_challenge_workload(sessions=3)
        mount_paths = [
            p for p in workload.trace.file_paths() if p.startswith(MOUNT)
        ]
        # 4 warps + 8 resliced + 2 atlas + 3 slices + 3 gifs = 20/session.
        assert len(mount_paths) == 60


class TestLinuxCompile:
    def test_volume_target(self):
        records = make_linux_compile_records(target_bytes=2 * MB)
        total = records_total_bytes(records)
        assert 2 * MB <= total < 2 * MB + 64 * 1024

    def test_deterministic(self):
        a = make_linux_compile_records(target_bytes=MB, seed=5)
        b = make_linux_compile_records(target_bytes=MB, seed=5)
        assert a == b

    def test_values_fit_simpledb(self):
        from repro.cloud.simpledb import ATTRIBUTE_LIMIT_BYTES

        records = make_linux_compile_records(target_bytes=MB)
        assert all(
            len(r.value_text().encode()) <= ATTRIBUTE_LIMIT_BYTES for r in records
        )

    def test_realistic_mix(self):
        records = make_linux_compile_records(target_bytes=MB)
        attributes = {r.attribute for r in records}
        assert {"argv", "env", "input", "type", "name", "sha1"} <= attributes


class TestMicrobench:
    def test_capture_marks_only_final_flush_with_data(self):
        workload = make_blast_workload(jobs=1, queries_per_job=20, chunk_count=2)
        works = capture_flush_works(workload)
        by_uuid = {}
        for work in works:
            if work.include_data:
                assert work.primary.uuid not in by_uuid
                by_uuid[work.primary.uuid] = work
        # raw.hits is flushed at chunk boundaries and closed once: several
        # flushes, one data upload.
        raw_flushes = [
            w for w in works if w.primary.path.endswith("raw.hits")
        ]
        assert len(raw_flushes) >= 2
        assert sum(1 for w in raw_flushes if w.include_data) == 1

    def test_unknown_configuration_rejected(self):
        workload = make_nightly_workload(nights=2)
        with pytest.raises(ValueError):
            run_microbenchmark(workload, "p9")

    def test_protocol_never_transmits_less_than_baseline(self):
        workload = make_blast_workload(jobs=1, queries_per_job=20)
        base = run_microbenchmark(workload, "s3fs")
        p1 = run_microbenchmark(workload, "p1")
        assert p1.bytes_transmitted >= base.bytes_transmitted
        assert p1.operations > base.operations
