"""The Placeless kernel: users, spaces, base documents and routed I/O.

The kernel stands in for the pair of Placeless servers in the paper's
prototype (one serving the user's references, one the base documents).
It owns the simulation context, mints users and documents, and routes
read/write operations while charging the network hops the request
crosses, so that an uncached access pays

    app → reference server → base server → repository

exactly as Table 1's "no cache" column does.

:meth:`PlacelessKernel.read` and :meth:`PlacelessKernel.write` are also
the cache pipeline's backing operations: the read pipeline's fetch step
calls ``read`` on a miss (the returned
:class:`~repro.placeless.document.PathMeta` feeds the admission vote,
the verifier installation and the replacement cost), and the write
pipeline's write-through and flush call ``write``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DocumentNotFoundError, SpaceNotFoundError
from repro.events.timers import TimerService
from repro.ids import DocumentId, UserId
from repro.placeless.document import BaseDocument, PathMeta
from repro.placeless.reference import DocumentReference
from repro.placeless.space import DocumentSpace
from repro.providers.base import BitProvider
from repro.sim.context import SimContext

__all__ = ["KernelReadOutcome", "KernelStats", "PlacelessKernel"]


@dataclass
class KernelReadOutcome:
    """A fully-drained read: final content plus the path's cache metadata."""

    content: bytes
    meta: PathMeta
    source_size: int
    elapsed_ms: float

    @property
    def size(self) -> int:
        """Size of the content as delivered to the application."""
        return len(self.content)


@dataclass
class KernelStats:
    """Operation counters for reporting."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class PlacelessKernel:
    """Top-level façade over the whole middleware."""

    def __init__(self, ctx: SimContext | None = None) -> None:
        self.ctx = ctx or SimContext()
        self.timers = TimerService(self.ctx.clock)
        self.stats = KernelStats()
        self._spaces: dict[UserId, DocumentSpace] = {}
        self._documents: dict[DocumentId, BaseDocument] = {}

    # -- principals ---------------------------------------------------------

    def create_user(self, name: str) -> UserId:
        """Register a user and create their document space."""
        user = self.ctx.ids.user(name)
        self._spaces[user] = DocumentSpace(self.ctx, user)
        return user

    def create_group(self, name: str, members: list[UserId]) -> UserId:
        """Register a group principal with a shared document space.

        §1: document spaces "can be owned by an individual or a group of
        people".  The group gets its own principal id; references in the
        group space are owned by that principal, so all members see the
        same properties — and share the same cached version.
        """
        for member in members:
            self.space(member)  # validate each member exists
        group = self.ctx.ids.user(f"group-{name}")
        self._spaces[group] = DocumentSpace(
            self.ctx, group, members=set(members)
        )
        return group

    def space(self, user: UserId) -> DocumentSpace:
        """The user's document space."""
        try:
            return self._spaces[user]
        except KeyError:
            raise SpaceNotFoundError(user) from None

    def users(self) -> list[UserId]:
        """All registered users."""
        return list(self._spaces)

    # -- documents -----------------------------------------------------------

    def create_document(
        self,
        owner: UserId,
        provider: BitProvider,
        hint: str | None = None,
    ) -> BaseDocument:
        """Create a base document linked to *provider*, owned by *owner*."""
        self.space(owner)  # validate the owner exists
        document_id = self.ctx.ids.document(hint)
        base = BaseDocument(self.ctx, document_id, owner, provider)
        self._documents[document_id] = base
        return base

    def import_document(
        self,
        owner: UserId,
        provider: BitProvider,
        hint: str | None = None,
    ) -> DocumentReference:
        """Create a base document *and* the owner's reference to it."""
        base = self.create_document(owner, provider, hint)
        return self.space(owner).add_reference(base, hint)

    def document(self, document_id: DocumentId) -> BaseDocument:
        """Look up a base document by id."""
        try:
            return self._documents[document_id]
        except KeyError:
            raise DocumentNotFoundError(document_id) from None

    def documents(self) -> list[BaseDocument]:
        """All base documents, in creation order."""
        return list(self._documents.values())

    # -- routed I/O ---------------------------------------------------------------

    def read(self, reference: DocumentReference) -> KernelReadOutcome:
        """Execute a full (uncached) read through the middleware.

        Charges the repository fetch, every active property on the read
        path, and the network hops between application, reference server
        and base server.  Returns the final content together with the
        accumulated caching metadata.

        The stream chain is read whole (``read(-1)``): each transform
        runs once over its entire input rather than once per pulled
        chunk.  Applications that pull in pieces (``repro.nfs``,
        :func:`~repro.streams.chain.drain`) get the same bytes.
        """
        started_ms = self.ctx.clock.now_ms
        result = reference.open_input()
        content = result.read_all()
        for hop in self.ctx.topology.fetch_path():
            self.ctx.charge_hop(hop, len(content))
        self.stats.reads += 1
        self.stats.bytes_read += len(content)
        return KernelReadOutcome(
            content=content,
            meta=result.meta,
            source_size=result.source_size,
            elapsed_ms=self.ctx.clock.now_ms - started_ms,
        )

    def write(self, reference: DocumentReference, content: bytes) -> float:
        """Execute a full write through the middleware; returns elapsed ms."""
        started_ms = self.ctx.clock.now_ms
        result = reference.open_output()
        result.stream.write(content)
        result.stream.close()
        for hop in self.ctx.topology.fetch_path():
            self.ctx.charge_hop(hop, len(content))
        self.stats.writes += 1
        self.stats.bytes_written += len(content)
        return self.ctx.clock.now_ms - started_ms
