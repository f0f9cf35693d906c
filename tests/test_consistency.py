"""Tests for the eventual-consistency engine."""

import pytest
from hypothesis import example, given, strategies as st

from repro.cloud.consistency import (
    ConsistencyEngine,
    ConsistencyModel,
    PropagationSampler,
    VersionedRegister,
    WriteVersion,
    add_version,
    history_versions,
    read_version,
)
from repro.cloud.simpledb import _attributes_size, _Histories


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


def _history(*writes):
    """A history built through ``add_version``: each write is ``(value,
    committed_at, visible_at)``, a ``None`` value a tombstone."""
    history = ()
    for value, committed_at, visible_at in writes:
        history = add_version(history, WriteVersion(value, committed_at, visible_at))
    return history


class TestVersionedRegister:
    """The history functions every store reads and writes through (the
    SimpleDB item lists, S3's one-slot ``VersionedRegister``)."""

    def test_read_before_any_write(self):
        assert read_version((), 10.0, ConsistencyModel.EVENTUAL) is None
        assert history_versions(()) == []
        register = VersionedRegister()
        assert register.read(10.0, ConsistencyModel.EVENTUAL) is None
        assert register.history() == []

    def test_strict_read_sees_commit_immediately(self):
        history = _history(("v1", 1.0, 5.0))
        version = read_version(history, 1.0, ConsistencyModel.STRICT)
        assert version is not None and version.value == "v1"

    def test_eventual_read_waits_for_visibility(self):
        history = _history(("v1", 1.0, 5.0))
        assert read_version(history, 2.0, ConsistencyModel.EVENTUAL) is None
        version = read_version(history, 5.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.value == "v1"

    def test_stale_read_returns_previous_version(self):
        history = _history(("old", 1.0, 1.0), ("new", 10.0, 20.0))
        version = read_version(history, 15.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.value == "old"

    def test_last_writer_wins(self):
        history = _history(("a", 1.0, 1.0), ("b", 2.0, 2.0))
        version = read_version(history, 3.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.value == "b"

    def test_same_commit_time_goes_to_the_later_write(self):
        history = _history(("a", 2.0, 2.0), ("b", 2.0, 2.0), ("c", 1.0, 1.0))
        for model in ConsistencyModel:
            version = read_version(history, 3.0, model)
            assert version is not None and version.value == "b"

    def test_visible_delete_hides_value(self):
        history = _history(("a", 1.0, 1.0), (None, 2.0, 2.0))
        version = read_version(history, 3.0, ConsistencyModel.EVENTUAL)
        assert version is not None and version.deleted

    def test_pending_delete_still_shows_value(self):
        history = _history(("a", 1.0, 1.0), (None, 2.0, 50.0))
        version = read_version(history, 3.0, ConsistencyModel.EVENTUAL)
        assert version is not None and not version.deleted

    def test_read_latest_committed_ignores_visibility(self):
        history = _history(("a", 1.0, 100.0))
        version = read_version(history, 2.0, ConsistencyModel.STRICT)
        assert version is not None and version.value == "a"
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=100.0)
        assert register.read_latest_committed(2.0) == version

    def test_one_write_is_held_bare_and_the_second_makes_a_tuple(self):
        history = _history(("a", 1.0, 1.0))
        assert history.__class__ is WriteVersion
        history = add_version(history, WriteVersion("b", 2.0, 2.0))
        assert [v.value for v in history] == ["a", "b"]
        register = VersionedRegister()
        register.write("a", committed_at=1.0, visible_at=1.0)
        assert register._history.__class__ is WriteVersion

    def test_out_of_order_insert_keeps_history_sorted(self):
        history = _history(("late", 10.0, 10.0), ("early", 1.0, 1.0))
        assert [v.value for v in history_versions(history)] == ["early", "late"]

    def test_a_tombstone_is_a_none_value(self):
        register = VersionedRegister()
        register.delete(committed_at=1.0, visible_at=1.0)
        (version,) = register.history()
        assert version.value is None and version.deleted
        assert not WriteVersion((), 1.0, 1.0).deleted

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
        history = _history(
            *(
                (f"v{index}", commit, commit + delay)
                for index, (commit, delay) in enumerate(sorted(writes))
            )
        )
        last_commit = -1.0
        for t in range(0, 200, 10):
            version = read_version(history, float(t), ConsistencyModel.EVENTUAL)
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


#: One write: (item, tombstone?, commit time, propagation delay).  Few
#: items and integer times, so that rewrites, out-of-order commits and
#: same-time ties are common.
_ITEM_WRITES = st.lists(
    st.tuples(
        st.integers(0, 3), st.booleans(), st.integers(0, 6), st.integers(0, 4)
    ),
    min_size=1,
    max_size=30,
)


class TestColumnarHistories:
    """SimpleDB's ``_Histories`` keeps each item's last-committed version
    in columns and its earlier ones aside; every write sequence must
    read as the same items built through ``add_version`` and read
    through ``read_version``."""

    @given(_ITEM_WRITES)
    # Item 0: a rewrite into the earlier versions, one committing before
    # the columns' version, a same-time tie and a tombstone.
    @example([(0, False, 5, 1), (1, False, 2, 0), (0, False, 3, 4),
              (0, False, 5, 0), (0, True, 6, 2), (0, False, 6, 0)])
    def test_matches_add_version_and_read_version(self, writes):
        histories = _Histories()
        ids = {}
        reference = {}
        for index, (item, tombstone, commit, delay) in enumerate(writes):
            ident = ids.setdefault(item, len(ids))
            value = None if tombstone else ("attr", f"v{index}")
            committed_at, visible_at = float(commit), float(commit + delay)
            histories.write(ident, value, committed_at, visible_at)
            reference[ident] = add_version(
                reference.get(ident, ()),
                WriteVersion(value, committed_at, visible_at),
            )
        stamps = {t for _, _, c, d in writes for t in (c, c + d)}
        times = sorted({t + dt for t in stamps for dt in (-0.5, 0.0)})
        for ident, history in reference.items():
            expected = history_versions(history)
            got = histories.versions(ident)
            assert [
                (v.value, v.committed_at, v.visible_at) for v in got
            ] == [(v.value, v.committed_at, v.visible_at) for v in expected]
            for model in ConsistencyModel:
                for at in times + [float("inf")]:
                    version = read_version(history, at, model)
                    packed = histories.read(ident, at, model)
                    assert packed is (None if version is None else version.value)
                    if packed:
                        assert histories.attributes_size(
                            ident, packed
                        ) == _attributes_size(packed)
