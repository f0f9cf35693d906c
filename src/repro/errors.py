"""Exception hierarchy for the repro package.

Every error raised by the simulated cloud services, the PASS substrate, or
the protocols derives from :class:`ReproError` so callers can catch the
whole family with one clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# --------------------------------------------------------------------------
# Cloud service errors
# --------------------------------------------------------------------------

class CloudServiceError(ReproError):
    """Base class for simulated cloud-service failures."""


class NoSuchKeyError(CloudServiceError):
    """GET/HEAD/COPY/DELETE referenced an object key that does not exist."""


class NoSuchBucketError(CloudServiceError):
    """An operation referenced a bucket that was never created."""


class NoSuchDomainError(CloudServiceError):
    """A SimpleDB operation referenced a domain that was never created."""


class NoSuchQueueError(CloudServiceError):
    """An SQS operation referenced a queue URL that was never created."""


class LimitExceededError(CloudServiceError):
    """A service limit was violated (message size, attribute size, batch
    size, metadata size)."""


class InvalidRequestError(CloudServiceError):
    """The request was malformed (bad key, bad query, empty batch)."""


class QuerysyntaxError(InvalidRequestError):
    """A SimpleDB ``Select`` expression could not be parsed."""


class ClientCrashError(ReproError):
    """Raised by the fault injector to simulate a client machine crash at a
    designated crash point.  Protocol state already sent to the cloud
    survives; in-memory client state is lost."""

    def __init__(self, crash_point: str):
        super().__init__(f"client crashed at crash point {crash_point!r}")
        self.crash_point = crash_point


# --------------------------------------------------------------------------
# Provenance substrate errors
# --------------------------------------------------------------------------

class TraceError(ReproError):
    """A syscall trace was malformed (e.g. read from a never-opened fd)."""


# --------------------------------------------------------------------------
# Protocol errors
# --------------------------------------------------------------------------

class ProtocolError(ReproError):
    """Base class for protocol-level failures."""


class CouplingViolationError(ProtocolError):
    """Detection layer found data and provenance that do not match."""


class CausalOrderingViolationError(ProtocolError):
    """Detection layer found a dangling ancestor pointer."""


class TransactionIncompleteError(ProtocolError):
    """The commit daemon was asked to force-commit an incomplete
    transaction."""
