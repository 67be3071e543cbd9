"""Base documents: the shared link to a document's actual content.

"A base document is the link to the actual content of the document and is
generally owned by either the author of the content or the person or
group that imported the document into the local environment." (§2)

The base document owns the bit-provider, the universal property chain,
and the base half of the read and write paths.  Read/write results carry
the caching metadata §3 requires the read path to accumulate: verifiers,
cacheability votes aggregated to the most restrictive, and the
replacement cost (bit-provider retrieval cost plus each property's
execution time).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from typing import Any

from repro.content.signature import ContentSignature
from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import Verifier
from repro.events.types import Event, EventType
from repro.ids import DocumentId, UserId
from repro.placeless.chain import apply_read_wrapper, apply_write_wrapper
from repro.placeless.properties import ActiveProperty, AttachmentSite
from repro.placeless.propertyset import PropertyHolder
from repro.providers.base import BitProvider
from repro.sim.context import SimContext
from repro.streams.base import (
    BytesInputStream,
    BytesOutputStream,
    InputStream,
    OutputStream,
)

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.placeless.reference import DocumentReference

__all__ = ["PathMeta", "ReadResult", "WriteResult", "BaseDocument"]


@dataclass
class PathMeta:
    """Caching metadata accumulated while a read path executes.

    §3 (Cache Management): the cache receives, along with the content,
    the consistency verifiers, the aggregated cacheability indicator, and
    the replacement cost built up along the read path.
    """

    verifiers: list[Verifier] = field(default_factory=list)
    votes: list[Cacheability] = field(default_factory=list)
    replacement_cost_ms: float = 0.0
    #: Every read-chain property's ``transform_signature()``, base chain
    #: then reference chain; equal lists over the same source bytes
    #: produce identical content.
    chain_signature: tuple[str, ...] = ()
    #: Number of active properties dispatched along the path.
    properties_executed: int = 0
    #: Signature of the raw source bytes at fetch time; used by the cache
    #: for ground-truth staleness accounting in experiments.
    source_signature: ContentSignature | None = None
    #: True when a property on the path asked for the entry to be pinned
    #: ("always available", §5).
    pinned: bool = False
    #: Optional transformers skipped by the containment layer on this
    #: path; any skip marks the served result degraded.
    contained_skips: int = 0
    #: *Required* transformers skipped by the containment layer: the
    #: untransformed result must never be admitted to a cache, so every
    #: access forces a miss to the kernel until the breaker closes.
    contained_required: int = 0

    @property
    def cacheability(self) -> Cacheability:
        """Most restrictive vote along the path."""
        return Cacheability.aggregate(self.votes)

    def absorb_property(self, ctx: SimContext, prop: ActiveProperty) -> None:
        """Charge and record one active property's read-path execution."""
        ctx.charge(prop.execution_cost_ms)
        self.replacement_cost_ms += prop.execution_cost_ms
        self.replacement_cost_ms += prop.replacement_cost_bonus_ms()
        self.properties_executed += 1
        if prop.requests_pinning():
            self.pinned = True
        vote = prop.cacheability_vote()
        if vote is not None:
            self.votes.append(vote)
        verifier = prop.make_verifier()
        if verifier is not None:
            self.verifiers.append(verifier)
        self.chain_signature = self.chain_signature + (
            prop.transform_signature(),
        )


@dataclass
class ReadResult:
    """What a completed ``get_input_stream`` call returns.

    The application reads from :attr:`stream`; a cache interposed between
    the application and Placeless additionally consumes :attr:`meta`.
    """

    stream: InputStream
    meta: PathMeta
    source_size: int

    def read_all(self) -> bytes:
        """Read the stream whole (one ``read(-1)``) and close it."""
        try:
            return self.stream.read(-1)
        finally:
            self.stream.close()


@dataclass
class WriteResult:
    """What a completed ``get_output_stream`` call returns.

    The application writes into :attr:`stream` and closes it; closing
    flushes the custom-stream chain down to the bit-provider.
    """

    stream: OutputStream
    #: Sink that can report what reached the repository, for tests.
    sink: "_ProviderSink"


class _ProviderSink(BytesOutputStream):
    """Terminal output stream: on close, stores the bytes in-band.

    The store itself raises CONTENT_UPDATED through the base document's
    dispatcher (via the provider's snoop listeners), which is how
    Placeless "can snoop on all update operations" made through it (§3).
    """

    def __init__(self, document: "BaseDocument", event: Event) -> None:
        super().__init__()
        self._document = document
        self._event = event
        self.stored = False

    def _on_close(self) -> None:
        self._document.provider.store(self.getvalue())
        self.stored = True


class BaseDocument(PropertyHolder):
    """The shared per-document object holding provider + universal chain."""

    site = AttachmentSite.BASE

    def __init__(
        self,
        ctx: SimContext,
        document_id: DocumentId,
        owner: UserId,
        provider: BitProvider,
    ) -> None:
        super().__init__(ctx, owner)
        self.document_id = document_id
        self.provider = provider
        self._references: list["DocumentReference"] = []
        # Snoop in-band stores: every store through the provider raises
        # CONTENT_UPDATED on this document.
        provider.on_update(self._content_updated)

    # -- event construction ---------------------------------------------------

    def make_event(
        self,
        event_type: EventType,
        user: UserId | None = None,
        payload: dict[str, Any] | None = None,
    ) -> Event:
        return Event(
            type=event_type,
            document_id=self.document_id,
            user_id=user,
            payload=payload or {},
            at_ms=self.ctx.clock.now_ms,
        )

    # -- reference bookkeeping ---------------------------------------------------

    def register_reference(self, reference: "DocumentReference") -> None:
        """Record a new reference pointing at this base document."""
        self._references.append(reference)

    def unregister_reference(self, reference: "DocumentReference") -> None:
        """Forget a dropped reference."""
        if reference in self._references:
            self._references.remove(reference)

    @property
    def references(self) -> list["DocumentReference"]:
        """All live references to this base document."""
        return list(self._references)

    # -- read path (base half) ------------------------------------------------

    def begin_read(self, event: Event, meta: PathMeta) -> tuple[InputStream, int]:
        """Fetch content and run the base half of the read path.

        Dispatches GET_INPUT_STREAM on the universal chain, fetches from
        the bit-provider (charging repository latency and seeding the
        replacement cost), then wraps the raw stream with the universal
        chain's custom input streams — "first at the base document" (§2).
        Returns the stream after base-side wrapping plus the raw size.
        """
        self.dispatcher.dispatch(event)
        fetch = self.provider.fetch()
        meta.source_signature = self.provider.signature_of(fetch.content)
        meta.replacement_cost_ms += fetch.retrieval_cost_ms
        meta.votes.append(fetch.cacheability)
        if fetch.verifier is not None:
            meta.verifiers.append(fetch.verifier)
        stream: InputStream = BytesInputStream(fetch.content)
        for prop in self.read_chain():
            stream = apply_read_wrapper(self.ctx, prop, stream, event, meta)
        return stream, len(fetch.content)

    # -- write path (base half) ------------------------------------------------

    def begin_write(self, event: Event) -> tuple[OutputStream, "_ProviderSink"]:
        """Open the provider sink and run the base half of the write path.

        Dispatches GET_OUTPUT_STREAM on the universal chain (the paper's
        versioning property runs here, snapshotting the old content
        before it is overwritten), then wraps the provider sink with the
        universal chain's custom output streams — they execute *after*
        the reference's, so they sit innermost, closest to the provider.
        """
        self.dispatcher.dispatch(event)
        sink = _ProviderSink(self, event)
        stream: OutputStream = sink
        # Base wrappers execute last on the write path, hence are applied
        # innermost; within the base chain, chain order is preserved by
        # wrapping in reverse.
        for prop in reversed(self.write_chain()):
            stream = apply_write_wrapper(self.ctx, prop, stream, event)
        return stream, sink

    # -- change snooping -----------------------------------------------------------

    def _content_updated(self, content: bytes) -> None:
        event = self.make_event(
            EventType.CONTENT_UPDATED,
            payload={"size": len(content)},
        )
        self.dispatcher.dispatch(event)

    def describe(self) -> str:
        """Human-readable summary for traces."""
        return (
            f"{self.document_id} (owner {self.owner}, "
            f"{len(self._properties)} universal properties, "
            f"{len(self._references)} references)"
        )
