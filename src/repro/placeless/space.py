"""Document spaces: the per-user component managing references.

"The API actually does not contain calls directly on document references
or base documents, but instead on document spaces, which are the system
components that manage base documents and document references on a
per-user basis." (§2, footnote 3)

A space owns every reference its user holds and offers lookup by
reference id and by the referenced document id.
"""

from __future__ import annotations

from repro.errors import ReferenceNotFoundError
from repro.ids import DocumentId, ReferenceId, UserId
from repro.placeless.document import BaseDocument
from repro.placeless.reference import DocumentReference
from repro.sim.context import SimContext

__all__ = ["DocumentSpace"]


class DocumentSpace:
    """All of one principal's document references.

    "The scope of a property applies to a document within a document
    space that can be owned by an individual or a group of people." (§1)
    A space owned by a group principal carries the member set; properties
    attached to the group's references are seen by every member, and a
    cache entry for a group reference is shared by the whole group (the
    entry key is the group principal).
    """

    def __init__(
        self,
        ctx: SimContext,
        owner: UserId,
        members: set[UserId] | None = None,
    ) -> None:
        self.ctx = ctx
        self.owner = owner
        #: For group spaces, the human members; an individual's space has
        #: exactly themselves.
        self.members: set[UserId] = set(members) if members else {owner}
        self._references: dict[ReferenceId, DocumentReference] = {}

    @property
    def is_group(self) -> bool:
        """True when this space is owned by a group principal."""
        return self.members != {self.owner}

    def is_member(self, user: UserId) -> bool:
        """True if *user* may act through this space."""
        return user == self.owner or user in self.members

    def add_member(self, user: UserId) -> None:
        """Add a user to a group space."""
        self.members.add(user)

    def remove_member(self, user: UserId) -> None:
        """Remove a user from a group space (no-op if absent)."""
        self.members.discard(user)

    def add_reference(
        self, base: BaseDocument, hint: str | None = None
    ) -> DocumentReference:
        """Create a new reference to *base* owned by this space's user."""
        reference_id = self.ctx.ids.reference(hint or base.document_id.value)
        reference = DocumentReference(self.ctx, reference_id, self.owner, base)
        self._references[reference_id] = reference
        return reference

    def drop_reference(self, reference_id: ReferenceId) -> None:
        """Remove a reference from this space (the base document remains)."""
        reference = self.get(reference_id)
        reference.base.unregister_reference(reference)
        del self._references[reference_id]

    def get(self, reference_id: ReferenceId) -> DocumentReference:
        """Look up a reference by id."""
        try:
            return self._references[reference_id]
        except KeyError:
            raise ReferenceNotFoundError(reference_id) from None

    def reference_for_document(self, document_id: DocumentId) -> DocumentReference:
        """This user's reference to *document_id* (first if several)."""
        for reference in self._references.values():
            if reference.base.document_id == document_id:
                return reference
        raise ReferenceNotFoundError(document_id)

    def references(self) -> list[DocumentReference]:
        """All references in this space."""
        return list(self._references.values())

    def __len__(self) -> int:
        return len(self._references)
