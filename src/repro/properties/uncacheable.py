"""A property that simply vetoes caching.

§3: "properties that change the content of the document or the bit
provider may deem a document uncacheable".  This property is the minimal
expression of that veto — useful both in tests and for documents whose
owner wants to opt out of caching entirely (privacy, rapidly-changing
personalization, etc.).
"""

from __future__ import annotations

from repro.contract.cacheability import Cacheability
from repro.events.types import EventType
from repro.placeless.properties import ActiveProperty

__all__ = ["UncacheableProperty"]


class UncacheableProperty(ActiveProperty):
    """Votes UNCACHEABLE on every read path it participates in."""

    execution_cost_ms = 0.01
    interest = frozenset({EventType.GET_INPUT_STREAM})

    def __init__(self, name: str = "uncacheable", version: int = 1) -> None:
        super().__init__(name, version)

    def cacheability_vote(self) -> Cacheability:
        return Cacheability.UNCACHEABLE
