"""Exception hierarchy shared by every subsystem of the INSPECTOR reproduction.

Keeping the exceptions in one module lets callers catch coarse categories
(``InspectorError``) or precise conditions (``DeadlockError``) without
importing the subsystem that raises them.
"""

from __future__ import annotations


class InspectorError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class MemoryError_(InspectorError):
    """Base class for errors raised by the memory subsystem.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class InvalidAddressError(MemoryError_):
    """An address falls outside every mapped region of the address space."""


class ProtectionError(MemoryError_):
    """An access violates page protection and no fault handler is installed."""


class AllocationError(MemoryError_):
    """The simulated allocator cannot satisfy a request."""


class DoubleFreeError(AllocationError):
    """An address was freed twice or was never allocated."""


class ThreadingError(InspectorError):
    """Base class for errors raised by the simulated threading runtime."""


class DeadlockError(ThreadingError):
    """No simulated process is runnable but some are still blocked."""


class InvalidSyncStateError(ThreadingError):
    """A synchronization primitive was used incorrectly.

    Examples: unlocking a mutex the caller does not hold, joining a thread
    twice, or re-initialising a barrier while threads are waiting on it.
    """


class SchedulerError(ThreadingError):
    """The scheduler was asked to make an impossible decision."""


class TraceError(InspectorError):
    """Base class for errors raised by the Intel PT model."""


class PacketDecodeError(TraceError):
    """The PT decoder encountered a malformed or truncated packet stream."""


class TraceGapError(TraceError):
    """Trace data was lost (AUX buffer overflow in full-trace mode)."""


class PerfError(InspectorError):
    """Errors raised by the perf-utility layer."""


class ProvenanceError(InspectorError):
    """Errors raised by the provenance core (CPG construction or queries)."""


class StoreError(ProvenanceError):
    """Errors raised by the persistent provenance store (corrupt segments,
    missing manifests, or queries against nodes the store never ingested).

    Attributes:
        code: Stable machine-readable error code a store server puts in its
            error replies, so clients can branch on the *kind* of failure
            without string matching.  ``"bad_request"`` covers the generic
            case (unknown runs, malformed parameters); subclasses override.
    """

    code: str = "bad_request"


class CorruptSegmentError(StoreError):
    """A segment's bytes failed an integrity check (or were already
    quarantined for failing one).

    Raised by the store's read path when a segment frame's checksum does
    not match, the file is missing or truncated, or the segment is marked
    quarantined in the manifest.  Queries that can answer without the
    segment catch this and degrade (reporting the segment through their
    :class:`~repro.store.cache.ReadScope`); queries that *need* it let it
    propagate.

    Attributes:
        segment_id: The damaged segment (``None`` when unknown).
        quarantined: Whether the segment was already quarantined before
            this access (vs. freshly detected corruption).
    """

    def __init__(self, message: str, segment_id=None, quarantined: bool = False) -> None:
        super().__init__(message)
        self.segment_id = segment_id
        self.quarantined = quarantined

    @property
    def code(self) -> str:  # type: ignore[override]
        return "quarantined" if self.quarantined else "corrupt_segment"


class StoreReadOnlyError(StoreError):
    """A write op reached a store server that was not started writable."""

    code = "read_only"


class StoreUnreachableError(StoreError):
    """A store server could not be reached after exhausting every retry.

    Raised only for transport-level failure (connect refused, connection
    dropped without a reply); a server that *answered* with an error keeps
    raising plain :class:`StoreError`.  The distinction is what lets a
    caller tell a dead or unreachable server (retry later, fail over)
    from a query the server rejected."""


class SnapshotError(InspectorError):
    """Errors raised by the consistent-snapshot facility."""


class PolicyViolationError(InspectorError):
    """A DIFT policy check failed (tainted data reached a restricted sink)."""
