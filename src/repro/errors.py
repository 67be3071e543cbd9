"""Exception hierarchy for the Placeless Documents reproduction.

Every error raised by the library derives from :class:`PlacelessError` so
applications can catch library failures with a single ``except`` clause
while still being able to discriminate the common failure modes the paper's
design implies (unknown documents, revoked references, property faults,
cache-consistency violations, provider I/O problems).
"""

from __future__ import annotations

__all__ = [
    "PlacelessError",
    "DocumentNotFoundError",
    "ReferenceNotFoundError",
    "SpaceNotFoundError",
    "PropertyError",
    "PropertyNotFoundError",
    "PropertyOrderError",
    "DuplicatePropertyError",
    "ProviderError",
    "ContentUnavailableError",
    "RepositoryOfflineError",
    "StreamError",
    "StreamClosedError",
    "EventError",
    "UnknownEventError",
    "CacheError",
    "CacheEntryNotFoundError",
    "StorageError",
    "UncacheableContentError",
    "CacheCapacityError",
    "VerifierError",
    "NotifierError",
    "NotificationLostError",
    "ContainmentError",
    "CircuitOpenError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "OverloadShedError",
    "PermissionDeniedError",
    "NFSError",
    "BadFileHandleError",
    "ClockError",
    "SchedulerError",
    "WorkloadError",
    "UNAVAILABLE_ERRORS",
]


class PlacelessError(Exception):
    """Base class for every error raised by this library."""


class DocumentNotFoundError(PlacelessError, KeyError):
    """A base document id did not resolve to a live base document."""


class ReferenceNotFoundError(PlacelessError, KeyError):
    """A document reference id did not resolve within a document space."""


class SpaceNotFoundError(PlacelessError, KeyError):
    """A user's document space is not registered with the kernel."""


class PropertyError(PlacelessError):
    """Base class for property-related failures."""


class PropertyNotFoundError(PropertyError, KeyError):
    """Lookup of a property by name/id failed."""


class PropertyOrderError(PropertyError):
    """An invalid reordering of a property chain was requested."""


class DuplicatePropertyError(PropertyError):
    """A property with the same id is already attached to the document."""


class ProviderError(PlacelessError):
    """Base class for bit-provider failures."""


class ContentUnavailableError(ProviderError):
    """The bit-provider could not produce content for the document."""


class RepositoryOfflineError(ProviderError):
    """The simulated repository is offline / unreachable."""


class StreamError(PlacelessError):
    """Base class for stream failures."""


class StreamClosedError(StreamError, ValueError):
    """An operation was attempted on a closed stream."""


class EventError(PlacelessError):
    """Base class for event-dispatch failures."""


class UnknownEventError(EventError, KeyError):
    """An event type outside the registered vocabulary was raised."""


class CacheError(PlacelessError):
    """Base class for cache failures."""


class CacheEntryNotFoundError(CacheError, KeyError):
    """A (document, user) pair has no entry in the cache."""


class StorageError(CacheError):
    """The durable L2 tier could not complete a disk operation.

    Raised by the storage layer on checksum mismatches, unknown
    signatures and injected disk faults.  The L2 tier itself converts
    these into storage-breaker failures and L1-only fallbacks — the
    error escapes only through the direct :mod:`repro.storage` APIs,
    never through a cache read.
    """


class UncacheableContentError(CacheError):
    """An attempt was made to insert content voted UNCACHEABLE."""


class CacheCapacityError(CacheError):
    """An object larger than the entire cache capacity was inserted."""


class VerifierError(CacheError):
    """A verifier failed while validating a cache entry.

    The paper's design treats a *failing* verifier (one that raises, as
    opposed to one that returns ``False``) as an invalid entry, so the
    manager converts this error into a conservative invalidation.
    """


class NotifierError(CacheError):
    """A notifier could not deliver an invalidation."""


class NotificationLostError(NotifierError):
    """The invalidation channel lost at least one notification.

    Raised at the bus seam when receiver-side gap detection (sequence
    numbers on a leased channel) proves that a pushed invalidation never
    arrived — the paper's lost-callback problem made *detectable*.  The
    recovery layer converts it into an anti-entropy resync rather than
    letting the cache serve stale transformed content forever.
    """


class ContainmentError(CacheError):
    """Base class for containment-layer refusals.

    Raised when the containment layer (circuit breakers + execution
    budgets around property code) decides an access cannot be served —
    the *deny* fallback — rather than silently degrading it.
    """


class CircuitOpenError(ContainmentError):
    """A circuit breaker is open and the policy's fallback is *deny*.

    The (document, code-site) pair has failed repeatedly; until the
    probation delay elapses and a half-open probe succeeds, accesses
    that cannot be served without the broken property are refused with
    this typed error instead of running the misbehaving code again.
    """


class BudgetExceededError(ContainmentError):
    """A property invocation exceeded its execution budget.

    Budgets cap each invocation's virtual-ms cost and the bytes it may
    stream; property code that runs away past either cap is aborted
    with this error, which the containment guard converts into a
    breaker failure plus the configured fallback.
    """


class DeadlineExceededError(CacheError):
    """A read's end-to-end deadline budget ran out mid-pipeline.

    The paper's QoS property promises a maximum access time per
    document; the overload layer turns that promise into a
    :class:`~repro.overload.DeadlineBudget` carried through the read
    context and charged at every expensive seam (fetch, chain
    execution, retry backoff, single-flight follower wait, shard hop).
    When the budget is exhausted before the bytes are ready, the
    pipeline raises this error *into* the existing degradation ladder
    — a bounded-stale serve is preferred to a late answer — and only
    sheds the read when no acceptable stale copy exists.
    """


class OverloadShedError(CacheError):
    """An admission controller refused a read to protect goodput.

    Raised before any pipeline work happens when the token-bucket /
    sojourn gate decides the system is past saturation and this read's
    priority class (derived from the chain's QoS property) is the one
    to sacrifice.  A shed read did zero fetch or chain work — the
    whole point is that rejecting it early keeps the reads that *are*
    admitted inside their deadlines.
    """


class PermissionDeniedError(PlacelessError):
    """The acting user does not own the reference or base document."""


class NFSError(PlacelessError):
    """Base class for the NFS translation-layer failures."""


class BadFileHandleError(NFSError, KeyError):
    """A file handle is unknown or already closed."""


class ClockError(PlacelessError):
    """Misuse of the virtual clock (e.g. scheduling in the past)."""


class SchedulerError(PlacelessError):
    """Misuse of a read driver (a flight wait under the sequential
    ``drive``, or a batch left with a parked read nobody will wake)."""


class WorkloadError(PlacelessError):
    """A workload/trace generator was configured inconsistently."""


#: What a read raises when its document is unavailable — a repository
#: or link down, or active-property code failing on the path — and no
#: degradation mode applied.  A trace counts these as failed reads.
UNAVAILABLE_ERRORS = (ProviderError, PropertyError, StreamError, ContainmentError)
