"""Eventual consistency for the simulated services.

AWS circa 2009/2010 was eventually consistent (§2.3.1 of the paper): a GET
immediately after a PUT may return the previous version because the request
is served by a replica that has not yet received the update; concurrent
PUTs resolve last-writer-wins, but for a window either value may be
returned.

We model each key as a :class:`VersionedRegister` holding the full write
history.  Every write is stamped with its commit time and a *visibility
time* — commit time plus a propagation delay drawn from a seeded
exponential distribution.  A read at time ``t`` observes the latest write
whose visibility time is ``<= t``; writes still propagating are invisible,
which yields exactly the paper's stale-read behaviour deterministically
(given the seed).

``ConsistencyModel.STRICT`` disables the window (Azure-style services).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class ConsistencyModel(enum.Enum):
    """Visibility semantics for a service."""

    EVENTUAL = "eventual"
    STRICT = "strict"


@dataclass(slots=True)
class WriteVersion(Generic[T]):
    """One committed write: the value, when it committed, when it is
    visible everywhere, and whether it is a deletion tombstone."""

    value: Optional[T]
    committed_at: float
    visible_at: float
    deleted: bool = False
    #: Response bytes of ``value``: a cache the owning service fills in
    #: on first use (``None`` = not computed yet), not part of the write.
    size: Optional[int] = field(
        default=None, init=False, compare=False, repr=False
    )


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
    """Write history of one key under last-writer-wins semantics — an
    immutable tuple each write replaces (one register per stored key:
    no instance dict, no list over-allocation)."""

    __slots__ = ("_history",)

    def __init__(self) -> None:
        self._history: Tuple[WriteVersion[T], ...] = ()

    def write(self, value: T, committed_at: float, visible_at: float) -> None:
        """Record a write; history is kept sorted by commit time."""
        self._insert(WriteVersion(value, committed_at, visible_at, deleted=False))

    def delete(self, committed_at: float, visible_at: float) -> None:
        """Record a deletion tombstone."""
        self._insert(WriteVersion(None, committed_at, visible_at, deleted=True))

    def _insert(self, version: WriteVersion[T]) -> None:
        history = self._history + (version,)
        # Writes usually arrive in commit order; keep the invariant cheap.
        if len(history) > 1 and (
            history[-1].committed_at < history[-2].committed_at
        ):
            history = tuple(sorted(history, key=lambda v: v.committed_at))
        self._history = history

    def read(self, at: float, model: ConsistencyModel) -> Optional[WriteVersion[T]]:
        """Latest observable version at time ``at``, or ``None`` if no
        write is visible yet.  Tombstones are returned (callers must check
        ``deleted``) so a visible delete hides earlier values."""
        best: Optional[WriteVersion[T]] = None
        for version in self._history:
            observable = (
                version.committed_at <= at
                if model is ConsistencyModel.STRICT
                else version.visible_at <= at
            )
            if observable and (best is None or version.committed_at >= best.committed_at):
                best = version
        return best

    def read_latest_committed(self, at: float) -> Optional[WriteVersion[T]]:
        """The true last-writer-wins value (what a fully propagated read
        would see), ignoring visibility delays."""
        return self.read(at, ConsistencyModel.STRICT)

    def history(self) -> List[WriteVersion[T]]:
        """All writes in commit order (for property checkers)."""
        return sorted(self._history, key=lambda v: v.committed_at)

    def ever_written(self) -> bool:
        return bool(self._history)


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
