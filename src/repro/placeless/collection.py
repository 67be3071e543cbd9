"""Document collections: groups of related documents.

§5 closes with: "mechanisms that tailor caching for related documents
(e.g., contained in a collection) have not been investigated."  We
implement the obvious candidate mechanism — collection-aware prefetch —
on top of this grouping primitive.  A collection belongs to one user and
groups that user's references; Placeless collections were themselves
property-based, so membership here can also be derived from a property
name (every reference carrying e.g. ``project-x`` joins).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import PlacelessError
from repro.ids import DocumentId, UserId
from repro.placeless.reference import DocumentReference
from repro.placeless.space import DocumentSpace

__all__ = ["DocumentCollection"]


class DocumentCollection:
    """A named group of one user's document references."""

    def __init__(self, name: str, owner: UserId) -> None:
        self.name = name
        self.owner = owner
        self._members: list[DocumentReference] = []

    def add(self, reference: DocumentReference) -> None:
        """Add a reference (must belong to the collection's owner)."""
        if reference.owner != self.owner:
            raise PlacelessError(
                f"reference {reference.reference_id} belongs to "
                f"{reference.owner}, not {self.owner}"
            )
        if reference not in self._members:
            self._members.append(reference)

    def remove(self, reference: DocumentReference) -> None:
        """Remove a member (no-op if absent)."""
        if reference in self._members:
            self._members.remove(reference)

    def members(self) -> list[DocumentReference]:
        """All member references, in insertion order."""
        return list(self._members)

    def siblings_of(self, reference: DocumentReference) -> list[DocumentReference]:
        """Every member except *reference* itself."""
        return [member for member in self._members if member is not reference]

    def document_ids(self) -> set[DocumentId]:
        """The base-document ids of all members."""
        return {member.base.document_id for member in self._members}

    def __contains__(self, reference: DocumentReference) -> bool:
        return reference in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[DocumentReference]:
        return iter(self._members)

    @classmethod
    def from_query(
        cls, name: str, space: DocumentSpace, query
    ) -> "DocumentCollection":
        """Collect every reference in *space* matching a
        :class:`~repro.placeless.query.Query`."""
        collection = cls(name, space.owner)
        for reference in query.run(space):
            collection.add(reference)
        return collection
