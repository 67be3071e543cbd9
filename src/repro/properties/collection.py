"""Collection-aware prefetch: tailored caching for related documents.

§5: "mechanisms that tailor caching for related documents (e.g.,
contained in a collection) have not been investigated."  This property is
the paper-idiomatic way to investigate them: it is attached per member
reference ("properties to implement custom per-document caching
policies", §1), and whenever its document is read it asks the cache to
prefetch the collection's other members.  The cache services the queue
*after* the triggering read, so the demand read's latency is unaffected;
subsequent reads of siblings then hit.
"""

from __future__ import annotations

import typing
from typing import Any

from repro.events.types import Event, EventType
from repro.placeless.collection import DocumentCollection
from repro.placeless.properties import ActiveProperty
from repro.placeless.reference import DocumentReference

__all__ = ["CollectionPrefetchProperty", "attach_collection_prefetch"]


class CollectionPrefetchProperty(ActiveProperty):
    """On read, queues the collection's siblings for prefetch.

    ``max_siblings`` bounds how much speculative work one read can
    trigger (prefetching a 500-document collection on every access would
    be a denial of service on the Placeless servers).  *cache* is
    whatever will do the prefetching: anything with
    ``request_prefetch(reference) -> bool`` (a ``DocumentCache``).
    """

    execution_cost_ms = 0.05
    interest = frozenset({EventType.GET_INPUT_STREAM, EventType.READ_FORWARDED})

    def __init__(
        self,
        collection: DocumentCollection,
        cache: Any,
        max_siblings: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"prefetch:{collection.name}")
        self.collection = collection
        self.cache = cache
        self.max_siblings = max_siblings
        self.prefetches_requested = 0

    def handle(self, event: Event) -> Any:
        # Attached per member reference (see the module docstring).
        reference = typing.cast("DocumentReference | None", self.attachment)
        if reference is None:
            return None
        siblings = self.collection.siblings_of(reference)
        if self.max_siblings is not None:
            siblings = siblings[: self.max_siblings]
        queued = 0
        for sibling in siblings:
            if self.cache.request_prefetch(sibling):
                queued += 1
        self.prefetches_requested += queued
        return queued


def attach_collection_prefetch(
    collection: DocumentCollection,
    cache: Any,
    max_siblings: int | None = None,
) -> list[CollectionPrefetchProperty]:
    """Attach a prefetch property to every member of *collection*."""
    attached = []
    for reference in collection:
        prop = CollectionPrefetchProperty(
            collection, cache, max_siblings=max_siblings
        )
        reference.attach(prop)
        attached.append(prop)
    return attached
