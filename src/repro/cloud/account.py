"""The :class:`CloudAccount` bundle.

One account is one experiment's cloud: a virtual clock, a scheduler tied
to an environment profile, the three services with their calibrated
(period-adjusted) profiles, a billing meter, and a fault plan.  Protocols
and workloads receive an account and never construct services directly.

The services themselves come from a pluggable *backend*
(:mod:`repro.backends`): ``"sim"`` (default) keeps everything in process
memory, ``"local"`` stores rows in sqlite and blobs on the filesystem —
same APIs, same seeded consistency draws, byte-identical answers.
"""

from __future__ import annotations

from typing import Optional

from repro.backends import build_backend
from repro.cloud.billing import BillingMeter, PriceBook
from repro.cloud.clock import Stopwatch, VirtualClock
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.faults import FaultPlan
from repro.cloud.network import ParallelScheduler
from repro.cloud.profiles import SimulationProfile
from repro.obs import Telemetry


class CloudAccount:
    """Everything one experiment needs to talk to "AWS".

    Args:
        profile: the complete performance configuration (service
            envelopes, environment, period).
        consistency: ``EVENTUAL`` (AWS, the paper's assumption) or
            ``STRICT`` (Azure-style).
        seed: master seed for propagation delays and SQS reordering;
            fixing it makes runs bit-for-bit reproducible.
        faults: crash-point plan (defaults to a fresh, unarmed plan).
        telemetry: a :class:`~repro.obs.Telemetry` hub, or a bool to
            construct one enabled/disabled.  Telemetry is observational
            only — the suite pins that disabling it leaves answers and
            billing byte-identical.
        backend: which storage backend serves S3/SimpleDB/SQS —
            ``"sim"`` (in-memory, default) or ``"local"``
            (sqlite + filesystem; see :mod:`repro.backends.local`).
        backend_root: storage directory for on-disk backends.  Omitted,
            a temporary directory is used and removed by :meth:`close`;
            given, the data is durable across accounts.
        index_store: SimpleDB's secondary-index substrate — ``"array"``
            (default; item ids, postings laid out by cardinality)
            or ``"legacy"`` (the dict-of-sets baseline).  Answers and
            billing are byte-identical either way; the knob exists for
            equivalence tests and memory-comparison sweeps.
    """

    def __init__(
        self,
        profile: SimulationProfile = SimulationProfile(),
        consistency: ConsistencyModel = ConsistencyModel.EVENTUAL,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        prices: PriceBook = PriceBook(),
        telemetry=None,
        backend: str = "sim",
        backend_root: Optional[str] = None,
        index_store: str = "array",
    ):
        self.profile = profile
        self.clock = VirtualClock()
        self.telemetry = Telemetry.coerce(telemetry)
        self.scheduler = ParallelScheduler(self.clock, profile.environment)
        self.billing = BillingMeter(prices)
        self.faults = faults if faults is not None else FaultPlan()
        self.consistency_model = consistency

        self._backend = build_backend(
            backend,
            scheduler=self.scheduler,
            profile=profile,
            billing=self.billing,
            consistency=consistency,
            seed=seed,
            telemetry=self.telemetry,
            root=backend_root,
            index_store=index_store,
        )
        self.backend = self._backend.name
        self.backend_root = self._backend.root
        self.s3 = self._backend.s3
        self.simpledb = self._backend.simpledb
        self.sqs = self._backend.sqs

        self.billing.bind_metrics(self.telemetry.metrics)

    def close(self) -> None:
        """Release backend resources (sqlite connections; temp dirs when
        the backend root was auto-created).  Idempotent; a no-op for the
        in-memory backend."""
        self._backend.close()

    def stopwatch(self) -> Stopwatch:
        """A stopwatch over the account's virtual clock."""
        return Stopwatch(self.clock)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    def settle(self, seconds: float = 60.0) -> None:
        """Advance the clock far enough for eventual consistency to settle
        (all pending writes become visible).  Used by experiments that
        need a quiescent view — e.g. running queries after an upload."""
        self.clock.advance(seconds)

    def instance_hours(self) -> float:
        """EC2 instance-hours consumed so far (elapsed virtual time when
        running on EC2/UML; zero for a local machine)."""
        if self.profile.environment.instance_hourly_usd == 0:
            return 0.0
        return self.clock.now / 3600.0
