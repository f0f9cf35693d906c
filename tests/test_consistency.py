"""Tests for the eventual-consistency engine."""

import pytest
from hypothesis import given, strategies as st

from repro.cloud.consistency import (
    ConsistencyEngine,
    ConsistencyModel,
    PropagationSampler,
    VersionedRegister,
    WriteVersion,
)


class TestPropagationSampler:
    def test_zero_mean_is_immediate(self):
        sampler = PropagationSampler(0.0, seed=1)
        assert sampler.sample() == 0.0

    def test_samples_capped_at_four_means(self):
        sampler = PropagationSampler(2.0, seed=1)
        for _ in range(500):
            assert 0.0 <= sampler.sample() <= 8.0

    def test_deterministic_given_seed(self):
        a = [PropagationSampler(3.0, seed=9).sample() for _ in range(5)]
        b = [PropagationSampler(3.0, seed=9).sample() for _ in range(5)]
        assert a == b

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            PropagationSampler(-1.0)


class TestVersionedRegister:
    def test_read_before_any_write(self):
        register = VersionedRegister()
        assert register.read(10.0, ConsistencyModel.EVENTUAL) is None
        assert register.history() == []

    def test_strict_read_sees_commit_immediately(self):
        register = VersionedRegister()
        register.write("v1", committed_at=1.0, visible_at=5.0)
        version = register.read(1.0, ConsistencyModel.STRICT)
        assert version is not None and version.value == "v1"

    def test_eventual_read_waits_for_visibility(self):
        register = VersionedRegister()
        register.write("v1", committed_at=1.0, visible_at=5.0)
        assert register.read(2.0, ConsistencyModel.EVENTUAL) is None
        version = register.read(5.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.value == "v1"

    def test_stale_read_returns_previous_version(self):
        register = VersionedRegister()
        register.write("old", committed_at=1.0, visible_at=1.0)
        register.write("new", committed_at=10.0, visible_at=20.0)
        version = register.read(15.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.value == "old"

    def test_last_writer_wins(self):
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=1.0)
        register.write("b", committed_at=2.0, visible_at=2.0)
        version = register.read(3.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.value == "b"

    def test_visible_delete_hides_value(self):
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=1.0)
        register.delete(committed_at=2.0, visible_at=2.0)
        version = register.read(3.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.deleted

    def test_pending_delete_still_shows_value(self):
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=1.0)
        register.delete(committed_at=2.0, visible_at=50.0)
        version = register.read(3.0, ConsistencyModel.EVENTUAL)
        assert version is not None and not version.deleted

    def test_read_latest_committed_ignores_visibility(self):
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=100.0)
        version = register.read_latest_committed(2.0)
        assert version is not None and version.value == "a"

    def test_one_write_is_held_bare_and_the_second_makes_a_tuple(self):
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=1.0)
        assert register._history.__class__ is WriteVersion
        register.write("b", committed_at=2.0, visible_at=2.0)
        assert [v.value for v in register._history] == ["a", "b"]

    def test_out_of_order_insert_keeps_history_sorted(self):
        register = VersionedRegister()
        register.write("late", committed_at=10.0, visible_at=10.0)
        register.write("early", committed_at=1.0, visible_at=1.0)
        history = register.history()
        assert [v.value for v in history] == ["early", "late"]

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 50)),
            min_size=1,
            max_size=20,
        )
    )
    def test_reads_never_travel_backwards(self, writes):
        """Later reads observe a commit time >= earlier reads (monotonic
        staleness for a single client watching one key)."""
        register = VersionedRegister()
        for index, (commit, delay) in enumerate(sorted(writes)):
            register.write(f"v{index}", commit, commit + delay)
        last_commit = -1.0
        for t in range(0, 200, 10):
            version = register.read(float(t), ConsistencyModel.EVENTUAL)
            if version is not None:
                assert version.committed_at >= last_commit
                last_commit = version.committed_at


class TestConsistencyEngine:
    def test_strict_visibility_is_immediate(self):
        engine = ConsistencyEngine(ConsistencyModel.STRICT)
        assert engine.visibility_for(42.0) == 42.0

    def test_eventual_visibility_is_delayed(self):
        engine = ConsistencyEngine(
            ConsistencyModel.EVENTUAL, PropagationSampler(5.0, seed=3)
        )
        samples = [engine.visibility_for(10.0) for _ in range(50)]
        assert all(s >= 10.0 for s in samples)
        assert any(s > 10.0 for s in samples)
