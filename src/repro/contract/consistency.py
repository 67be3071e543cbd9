"""Invalidation vocabulary: the paper's four consistency classes.

§3 (Cache Consistency) enumerates exactly four ways cached transformed
content becomes invalid:

1. the original source is modified — either *through* Placeless (in-band,
   snoopable) or directly at the repository (out-of-band, only verifiers
   catch it);
2. active properties are added, deleted or modified;
3. the order of the active properties changes;
4. information used by active properties changes (external dependencies).

Every invalidation in this implementation carries one of these reasons
(plus bookkeeping reasons for evictions, explicit drops and write-backs)
so experiments can attribute staleness and invalidation traffic to its
cause — which is what the A5 bench reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ids import DocumentId, UserId

__all__ = ["InvalidationClass", "InvalidationReason", "Invalidation"]


class InvalidationClass(enum.Enum):
    """The paper's four consistency classes, plus cache bookkeeping."""

    SOURCE_MODIFIED = 1
    PROPERTIES_CHANGED = 2
    PROPERTY_ORDER_CHANGED = 3
    EXTERNAL_DEPENDENCY_CHANGED = 4
    BOOKKEEPING = 0


class InvalidationReason(enum.Enum):
    """Specific cause of one invalidation."""

    #: Class 1, in-band: content written through Placeless (snooped).
    SOURCE_UPDATED_IN_BAND = "source-updated-in-band"
    #: Class 1, out-of-band: a verifier caught a repository-side change.
    SOURCE_UPDATED_OUT_OF_BAND = "source-updated-out-of-band"
    #: Class 1: another user opened the document for writing.
    OPENED_FOR_WRITE = "opened-for-write"
    #: Class 2.
    PROPERTY_ADDED = "property-added"
    PROPERTY_REMOVED = "property-removed"
    PROPERTY_MODIFIED = "property-modified"
    #: Class 3.
    PROPERTY_REORDERED = "property-reordered"
    #: Class 4: a verifier (TTL, threshold, ...) or notifier watching
    #: external information declared the entry stale.
    EXTERNAL_CHANGED = "external-changed"
    #: Bookkeeping: replacement policy evicted the entry.
    EVICTED = "evicted"
    #: Bookkeeping: explicit application/cache-management drop.
    EXPLICIT = "explicit"
    #: Bookkeeping: a write-back buffered a newer local version.
    LOCAL_WRITE = "local-write"
    #: Bookkeeping: a verifier raised; treated as conservatively stale.
    VERIFIER_FAILED = "verifier-failed"

    # Members key every cache's invalidation counter: identity hashing,
    # not Enum's Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__

    @property
    def invalidation_class(self) -> InvalidationClass:
        """Which of the paper's four classes this reason belongs to."""
        mapping = {
            InvalidationReason.SOURCE_UPDATED_IN_BAND: InvalidationClass.SOURCE_MODIFIED,
            InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND: InvalidationClass.SOURCE_MODIFIED,
            InvalidationReason.OPENED_FOR_WRITE: InvalidationClass.SOURCE_MODIFIED,
            InvalidationReason.PROPERTY_ADDED: InvalidationClass.PROPERTIES_CHANGED,
            InvalidationReason.PROPERTY_REMOVED: InvalidationClass.PROPERTIES_CHANGED,
            InvalidationReason.PROPERTY_MODIFIED: InvalidationClass.PROPERTIES_CHANGED,
            InvalidationReason.PROPERTY_REORDERED: InvalidationClass.PROPERTY_ORDER_CHANGED,
            InvalidationReason.EXTERNAL_CHANGED: InvalidationClass.EXTERNAL_DEPENDENCY_CHANGED,
        }
        return mapping.get(self, InvalidationClass.BOOKKEEPING)


@dataclass(slots=True)
class Invalidation:
    """One invalidation as delivered to (or raised inside) a cache.

    ``user_id is None`` means the invalidation applies to every user's
    entry for the document (e.g. the source changed); a specific user
    targets that user's personalized version only (e.g. *their* personal
    property changed).
    """

    reason: InvalidationReason
    document_id: DocumentId
    user_id: UserId | None = None
    at_ms: float = 0.0
    #: "notifier" (pushed by a notifier property), "verifier" (caught on
    #: a hit), "resync" (anti-entropy repair), or "internal"
    #: (bookkeeping).
    origin: str = "internal"
    #: Channel epoch/sequence stamped by a sequencing
    #: channel of the cache's ``InvalidationBus``; ``None``
    #: on unsequenced deliveries (sequencing is opt-in per cache).  The
    #: receiver uses these for gap detection: a jump in ``sequence``
    #: within one ``epoch`` proves a notification was lost in transit.
    epoch: int | None = None
    sequence: int | None = None

    def matches(self, document_id: DocumentId, user_id: UserId) -> bool:
        """True if this invalidation covers the given cache entry key."""
        if self.document_id != document_id:
            return False
        return self.user_id is None or self.user_id == user_id
