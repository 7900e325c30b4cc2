"""Exception hierarchy for the weak-sets reproduction.

The paper assumes failures are *detectable*: "We assume we can detect
failures, e.g., those signaled from the lower network and transport layers
of the communication substrate."  All such detectable failures are modelled
as subclasses of :class:`FailureException`, which corresponds to the
paper's special ``failure`` exception ("denoting any kind of failure, e.g.,
a timeout, node crash, or link down, due to the distributed nature of the
system").

Everything else in the hierarchy is an ordinary programming error and is
*not* part of the paper's failure model.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FailureException",
    "TimeoutFailure",
    "NodeCrashFailure",
    "LinkDownFailure",
    "PartitionFailure",
    "UnreachableObjectFailure",
    "DisconnectedError",
    "LockUnavailableFailure",
    "CircuitOpenFailure",
    "ServerBusyFailure",
    "WrongShardFailure",
    "SimulationError",
    "ProcessKilled",
    "SpecificationError",
    "SpecViolation",
    "ConstraintViolation",
    "IteratorProtocolError",
    "StoreError",
    "NoSuchObjectError",
    "NoSuchCollectionError",
    "MutationNotAllowed",
    "FileSystemError",
    "NoSuchPathError",
    "NotADirectoryError_",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class FailureException(ReproError):
    """The paper's ``failure`` exception.

    Raised (or reported via :class:`repro.weaksets.outcomes.Failed`) when
    an operation terminates with a failure caused by the distributed
    nature of the system: a timeout, a node crash, or a link/partition
    making an object unreachable.
    """

    def __init__(self, reason: str = "failure"):
        super().__init__(reason)
        self.reason = reason


class TimeoutFailure(FailureException):
    """An RPC or wait exceeded its deadline."""

    def __init__(self, reason: str = "timeout"):
        super().__init__(reason)


class NodeCrashFailure(FailureException):
    """The remote node is crashed (detected via the failure detector)."""

    def __init__(self, reason: str = "node crashed"):
        super().__init__(reason)


class LinkDownFailure(FailureException):
    """A communication link required for the call is down."""

    def __init__(self, reason: str = "link down"):
        super().__init__(reason)


class PartitionFailure(FailureException):
    """Source and destination nodes are in different network partitions."""

    def __init__(self, reason: str = "network partition"):
        super().__init__(reason)


class UnreachableObjectFailure(FailureException):
    """An object is known to exist but cannot currently be accessed.

    This is the situation the paper's ``reachable`` construct captures:
    "knowing about the existence of an object does not imply being able
    to access it."
    """

    def __init__(self, reason: str = "object unreachable"):
        super().__init__(reason)


class DisconnectedError(UnreachableObjectFailure):
    """The *client itself* is in DISCONNECTED state.

    A distinct subclass of :class:`UnreachableObjectFailure` so offline
    reads fail fast — no object is reachable by construction, so there
    is nothing to gain from blocking until ``give_up_after`` (the one
    blocking rule, ``ElementsIterator._block``, checks for it).  Raised
    synchronously (zero simulated time) by the repository's RPC funnel
    while its :class:`~repro.store.offline.OfflineClient` is offline.
    """

    def __init__(self, reason: str = "client disconnected"):
        super().__init__(reason)


class LockUnavailableFailure(FailureException):
    """A distributed lock could not be acquired (holder unreachable, etc.)."""

    def __init__(self, reason: str = "lock unavailable"):
        super().__init__(reason)


class CircuitOpenFailure(FailureException):
    """A circuit breaker is open for this destination: the call was
    short-circuited client-side without touching the network.  Retrying
    after the breaker's cooldown may reach a half-open probe."""

    def __init__(self, reason: str = "circuit open"):
        super().__init__(reason)


class ServerBusyFailure(FailureException):
    """The destination server shed this request at admission.

    Unlike the transport failures, this is an *answer* from a live,
    saturated node: its bounded executor had no worker and no queue
    room (or the request lost a priority eviction).  ``retry_after``
    is the server's own estimate of when capacity frees up — observed
    queue depth x EWMA service time over the worker pool — which the
    resilience layer uses as a backoff floor instead of hammering the
    queue that just rejected it.
    """

    def __init__(self, reason: str = "server busy",
                 retry_after: float = 0.0):
        super().__init__(reason)
        self.retry_after = retry_after


class WrongShardFailure(FailureException):
    """The addressed shard does not own this element's registry entry.

    Answered by a shard server whose consistent-hash ring says another
    node owns the key — the client resolved a :class:`ShardMap` that a
    rebalance cutover has since superseded.  Deliberately *not* in the
    resilience layer's retryable set: retrying the same host cannot
    succeed; the caller must re-resolve the map and re-route (the
    repository's mutation funnels do exactly that).  ``owner`` carries
    the responding server's best guess at the current owner.
    """

    def __init__(self, reason: str = "wrong shard",
                 owner: "str | None" = None):
        super().__init__(reason)
        self.owner = owner


class SimulationError(ReproError):
    """Misuse of the discrete-event kernel (a bug, not a modelled failure)."""


class ProcessKilled(SimulationError):
    """Delivered into a simulated process that has been killed."""


class SpecificationError(ReproError):
    """Misuse of the specification framework."""


class SpecViolation(SpecificationError):
    """A recorded trace does not satisfy a specification's ensures clause."""

    def __init__(self, message: str, invocation_index: int | None = None):
        super().__init__(message)
        self.invocation_index = invocation_index


class ConstraintViolation(SpecificationError):
    """A computation violates a type's ``constraint`` history property."""

    def __init__(self, message: str, state_i: int | None = None, state_j: int | None = None):
        super().__init__(message)
        self.state_i = state_i
        self.state_j = state_j


class IteratorProtocolError(SpecificationError):
    """The iterator protocol was misused (e.g., invoked after termination)."""


class StoreError(ReproError):
    """Base class for object-repository errors that are not failures."""


class NoSuchObjectError(StoreError):
    """The named object does not exist anywhere (distinct from unreachable)."""


class NoSuchCollectionError(StoreError):
    """The named collection does not exist anywhere."""


class MutationNotAllowed(StoreError):
    """The collection's policy forbids this mutation.

    Raised, e.g., on ``remove`` against a grow-only collection or any
    mutation of an immutable one — the server-side enforcement of the
    paper's ``constraint`` clauses.
    """


class FileSystemError(ReproError):
    """Base class for dynamic-sets file-system errors."""


class NoSuchPathError(FileSystemError):
    """Path resolution failed: a component does not exist."""


class NotADirectoryError_(FileSystemError):
    """Path resolution hit a file where a directory was required."""
