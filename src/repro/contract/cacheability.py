"""Cacheability indicators and their most-restrictive aggregation.

Section 3 (Cache Management): "we provide three cacheability options:
uncacheable, cacheable but operation events need to be triggered, and
unrestricted caching.  The three cacheability options are set by all
active properties on the read-path ... and these choices aggregate to the
most restrictive value."
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable

__all__ = ["Cacheability"]


@functools.total_ordering
class Cacheability(enum.Enum):
    """One property's vote on how a document's content may be cached.

    The enum orders from most to least restrictive, so aggregation is
    simply ``min``.
    """

    #: The content must not be cached at all (e.g. a live video source
    #: whose content changes on every access).
    UNCACHEABLE = 0
    #: The content may be cached, but the cache must forward each
    #: operation as an event so registered properties (e.g. a
    #: read-audit-trail) still observe it; the system does not execute the
    #: forwarded operation fully.
    CACHEABLE_WITH_EVENTS = 1
    #: No restrictions.
    UNRESTRICTED = 2

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Cacheability):
            return NotImplemented
        return self._value_ < other._value_

    def combine(self, other: "Cacheability") -> "Cacheability":
        """The more restrictive of the two votes.  Members compare their
        ``_value_``: ``.value`` runs two Python frames per read."""
        return self if self._value_ <= other._value_ else other

    @classmethod
    def aggregate(cls, votes: Iterable["Cacheability"]) -> "Cacheability":
        """Most restrictive vote; UNRESTRICTED when nothing voted.

        An empty vote set means no property on the read path expressed a
        caching constraint, which the paper treats as freely cacheable.
        """
        result = cls.UNRESTRICTED
        for vote in votes:
            result = result.combine(vote)
        return result

    @property
    def allows_caching(self) -> bool:
        """True unless the vote is :attr:`UNCACHEABLE`."""
        return self is not Cacheability.UNCACHEABLE

    @property
    def requires_event_forwarding(self) -> bool:
        """True when cached hits must still be forwarded as events."""
        return self is Cacheability.CACHEABLE_WITH_EVENTS
