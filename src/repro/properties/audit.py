"""The read-audit-trail property — §3's motivating case for event forwarding.

"an active property that creates a read-audit-trail for a document only
needs to know when read operations occur, but does not need to receive
the actual content being read."  Making audited documents uncacheable
(the WWW solution) "seemed an unreasonable restriction" — instead the
property votes ``CACHEABLE_WITH_EVENTS``: the cache may keep the content
but must forward each hit as a READ_FORWARDED event, which this property
also registers for, so the trail stays complete whether reads are served
by Placeless or by the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.contract.cacheability import Cacheability
from repro.events.types import Event, EventType
from repro.ids import UserId
from repro.placeless.properties import ActiveProperty

__all__ = ["AuditRecord", "ReadAuditTrailProperty"]


@dataclass
class AuditRecord:
    """One observed read operation."""

    user: UserId | None
    at_ms: float
    via_cache: bool


class ReadAuditTrailProperty(ActiveProperty):
    """Appends a record per read, including cache-served (forwarded) reads."""

    execution_cost_ms = 0.05
    interest = frozenset({EventType.GET_INPUT_STREAM, EventType.READ_FORWARDED})

    def __init__(self, name: str = "read-audit-trail", version: int = 1) -> None:
        super().__init__(name, version)
        self.trail: list[AuditRecord] = []

    def handle(self, event: Event) -> Any:
        record = AuditRecord(
            user=event.user_id,
            at_ms=event.at_ms,
            via_cache=event.type is EventType.READ_FORWARDED,
        )
        self.trail.append(record)
        return record

    def cacheability_vote(self) -> Cacheability:
        return Cacheability.CACHEABLE_WITH_EVENTS

    @property
    def reads_observed(self) -> int:
        """Total reads recorded (direct + forwarded)."""
        return len(self.trail)

    @property
    def cache_served_reads(self) -> int:
        """Reads that were served by a cache and forwarded as events."""
        return sum(1 for record in self.trail if record.via_cache)
