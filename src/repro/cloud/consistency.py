"""Eventual consistency for the simulated services.

AWS circa 2009/2010 was eventually consistent (§2.3.1 of the paper): a GET
immediately after a PUT may return the previous version because the request
is served by a replica that has not yet received the update; concurrent
PUTs resolve last-writer-wins, but for a window either value may be
returned.

We keep each key's full write :data:`History`, read and written by the
functions below; a service stores the histories where it likes (S3 in
one :class:`VersionedRegister` per key, SimpleDB in a list indexed by
item id).  Every write is stamped with its commit time and a
*visibility time* — commit time plus a propagation delay drawn from a
seeded exponential distribution.  A read at time ``t`` observes the latest write
whose visibility time is ``<= t``; writes still propagating are invisible,
which yields exactly the paper's stale-read behaviour deterministically
(given the seed).

``ConsistencyModel.STRICT`` disables the window (Azure-style services).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Generic, List, Optional, Tuple, TypeVar, Union

T = TypeVar("T")


class ConsistencyModel(enum.Enum):
    """Visibility semantics for a service."""

    EVENTUAL = "eventual"
    STRICT = "strict"


@dataclass(slots=True)
class WriteVersion(Generic[T]):
    """One committed write: the value, when it committed, and when it is
    visible everywhere.  A deletion tombstone is a version whose value
    is ``None``."""

    value: Optional[T]
    committed_at: float
    visible_at: float

    @property
    def deleted(self) -> bool:
        """Whether this version is a deletion tombstone."""
        return self.value is None


#: One key's write history, sorted by commit time: ``()`` before the
#: first write, the one version bare after it (most keys are written
#: once), and a tuple from the second write.  Immutable: each write
#: makes a new value (no list over-allocation, nothing to share).
History = Union[Tuple[()], WriteVersion[T], Tuple[WriteVersion[T], ...]]


def add_version(history: History, version: WriteVersion[T]) -> History:
    """``history`` with ``version`` inserted in commit order (a later
    write that commits at the same time sorts after the earlier one)."""
    if not history:
        return version
    if history.__class__ is WriteVersion:
        history = (history, version)
    else:
        history += (version,)
    # Writes usually arrive in commit order; keep the invariant cheap.
    if history[-1].committed_at < history[-2].committed_at:
        history = tuple(sorted(history, key=lambda v: v.committed_at))
    return history


def read_version(
    history: History, at: float, model: ConsistencyModel
) -> Optional[WriteVersion[T]]:
    """Latest observable version at time ``at``, or ``None`` if no write
    is visible yet: among the versions committed (STRICT) or visible
    (EVENTUAL) by ``at``, the one that committed last, ties going to the
    later write.  Tombstones are returned (callers must check
    ``deleted``) so a visible delete hides earlier values."""
    strict = model is ConsistencyModel.STRICT
    if history.__class__ is WriteVersion:
        stamp = history.committed_at if strict else history.visible_at
        return history if stamp <= at else None
    # Newest commit first: the first observable version is the answer.
    for version in reversed(history):
        stamp = version.committed_at if strict else version.visible_at
        if stamp <= at:
            return version
    return None


def history_versions(history: History) -> List[WriteVersion[T]]:
    """All writes of ``history`` in commit order."""
    if history.__class__ is WriteVersion:
        return [history]
    return list(history)


class PropagationSampler:
    """Draws propagation delays from a seeded exponential distribution.

    The delay is capped at four times the mean so pathological samples
    cannot make a write invisible forever.
    """

    def __init__(self, mean_delay_s: float, seed: int = 0):
        if mean_delay_s < 0:
            raise ValueError("mean delay must be non-negative")
        self._mean = mean_delay_s
        self._rng = random.Random(seed)

    def sample(self) -> float:
        if self._mean == 0:
            return 0.0
        return min(self._rng.expovariate(1.0 / self._mean), 4.0 * self._mean)


class VersionedRegister(Generic[T]):
    """A mutable holder of one key's :data:`History` (an S3 object's),
    reading and writing it through the module's history functions."""

    __slots__ = ("_history",)

    def __init__(self) -> None:
        self._history: History = ()

    def write(self, value: T, committed_at: float, visible_at: float) -> None:
        """Record a write; history is kept sorted by commit time."""
        self._history = add_version(
            self._history, WriteVersion(value, committed_at, visible_at)
        )

    def delete(self, committed_at: float, visible_at: float) -> None:
        """Record a deletion tombstone."""
        self._history = add_version(
            self._history, WriteVersion(None, committed_at, visible_at)
        )

    def read(self, at: float, model: ConsistencyModel) -> Optional[WriteVersion[T]]:
        """See :func:`read_version`."""
        return read_version(self._history, at, model)

    def read_latest_committed(self, at: float) -> Optional[WriteVersion[T]]:
        """The true last-writer-wins value (what a fully propagated read
        would see), ignoring visibility delays."""
        return read_version(self._history, at, ConsistencyModel.STRICT)

    def history(self) -> List[WriteVersion[T]]:
        """All writes in commit order (for property checkers)."""
        return history_versions(self._history)


@dataclass
class ConsistencyEngine:
    """Shared visibility policy for one service instance."""

    model: ConsistencyModel = ConsistencyModel.EVENTUAL
    sampler: PropagationSampler = field(default_factory=lambda: PropagationSampler(4.0))

    def visibility_for(self, committed_at: float) -> float:
        """Compute the visible-at timestamp for a write committing now."""
        if self.model is ConsistencyModel.STRICT:
            return committed_at
        return committed_at + self.sampler.sample()
