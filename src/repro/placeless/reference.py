"""Document references: each user's personal handle to a base document.

"A document reference points to the base document.  Each user of the
document owns a separate document reference." (§2)  Personal properties
attach here and are seen only by the reference's owner.  The reference
orchestrates the full read and write paths, composing the base half in
the paper's order.
"""

from __future__ import annotations

from typing import Any

from repro.events.types import Event, EventType
from repro.ids import ReferenceId, UserId
from repro.placeless.chain import apply_read_wrapper, apply_write_wrapper
from repro.placeless.document import (
    BaseDocument,
    PathMeta,
    ReadResult,
    WriteResult,
)
from repro.placeless.properties import AttachmentSite
from repro.placeless.propertyset import PropertyHolder
from repro.sim.context import SimContext

__all__ = ["DocumentReference"]


class DocumentReference(PropertyHolder):
    """One user's reference to a base document, with personal properties."""

    site = AttachmentSite.REFERENCE

    def __init__(
        self,
        ctx: SimContext,
        reference_id: ReferenceId,
        owner: UserId,
        base: BaseDocument,
    ) -> None:
        super().__init__(ctx, owner)
        self.reference_id = reference_id
        self.base = base
        #: The compiled read chain (:func:`repro.placeless.chain.read_plan`),
        #: cached here beside the interned entry key.
        self._read_plan = None
        base.register_reference(self)

    @property
    def document_id(self):
        """The base document's id (references share the document id)."""
        return self.base.document_id

    def make_event(
        self,
        event_type: EventType,
        user: UserId | None = None,
        payload: dict[str, Any] | None = None,
    ) -> Event:
        return Event(
            type=event_type,
            document_id=self.base.document_id,
            user_id=user or self.owner,
            reference_id=self.reference_id,
            payload=payload or {},
            at_ms=self.ctx.clock.now_ms,
        )

    # -- read path ----------------------------------------------------------

    def open_input(self) -> ReadResult:
        """Run the full read path and return the application's stream.

        Order per §2: the call is forwarded to the base document, whose
        properties execute first; then this reference's properties
        execute, wrapping their custom input streams outermost so the
        application reads through them last.
        """
        event = self.make_event(EventType.GET_INPUT_STREAM)
        meta = PathMeta()
        stream, source_size = self.base.begin_read(event, meta)
        self.dispatch(event)
        for prop in self.read_chain():
            stream = apply_read_wrapper(self.ctx, prop, stream, event, meta)
        return ReadResult(stream=stream, meta=meta, source_size=source_size)

    def read_content(self) -> bytes:
        """Convenience: run the read path and drain the stream."""
        return self.open_input().read_all()

    # -- write path ----------------------------------------------------------

    def open_output(self) -> WriteResult:
        """Run the full write path and return the application's stream.

        The call forwards to the base document first (its properties are
        *dispatched* there, and their custom output streams sit closest
        to the bit-provider); this reference's custom output streams wrap
        outermost, so they execute first on written content — "custom
        output-streams on the write path are first executed at the
        document reference and then at the base document" (§2).
        """
        event = self.make_event(EventType.GET_OUTPUT_STREAM)
        stream, sink = self.base.begin_write(event)
        self.dispatch(event)
        # Within the reference chain, the first property executes first
        # (outermost); wrap in reverse so chain order is execution order.
        for prop in reversed(self.write_chain()):
            stream = apply_write_wrapper(self.ctx, prop, stream, event)
        return WriteResult(stream=stream, sink=sink)

    def write_content(self, content: bytes) -> None:
        """Convenience: run the write path, write *content*, close."""
        result = self.open_output()
        result.stream.write(content)
        result.stream.close()

    def describe(self) -> str:
        """Human-readable summary for traces."""
        return (
            f"{self.reference_id} -> {self.base.document_id} "
            f"(owner {self.owner}, {len(self._properties)} personal properties)"
        )
