"""The universal versioning property from Figure 1.

"Eyal also attached an universal property to the base that saves an old
version of the paper each time someone opens it for writing."  And §2:
the property "creates a new version of the content by generating a copy
of the existing document and adding a new static property to the base
with a link to that copy."

The property registers for GET_OUTPUT_STREAM on the base document; when
dispatched it snapshots the bit-provider's *current* content (before the
new write overwrites it) into an internal archive and attaches a static
``version-N`` property to the base document linking to the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.events.types import Event, EventType
from repro.ids import UserId, VersionId
from repro.placeless.properties import ActiveProperty, StaticProperty

__all__ = ["VersionSnapshot", "VersioningProperty"]


@dataclass
class VersionSnapshot:
    """One archived version of the document's content."""

    version_id: VersionId
    content: bytes
    saved_at_ms: float
    saved_by: UserId | None

    @property
    def size(self) -> int:
        """Snapshot size in bytes."""
        return len(self.content)


class VersioningProperty(ActiveProperty):
    """Archives the old content each time the document is opened for writing."""

    execution_cost_ms = 0.6
    interest = frozenset({EventType.GET_OUTPUT_STREAM, EventType.WRITE_FORWARDED})

    def __init__(self, name: str = "versioning", version: int = 1) -> None:
        super().__init__(name, version)
        self.snapshots: list[VersionSnapshot] = []

    def _base_document(self):
        """The base document, whether attached at the base or a reference."""
        attachment = self.attachment
        if attachment is None:
            return None
        return getattr(attachment, "base", attachment)

    def handle(self, event: Event) -> Any:
        base = self._base_document()
        if base is None:
            return None
        # Snapshot what the repository holds *now*, before the writer's
        # content reaches it.
        old_content = base.provider.peek()
        version_id = base.ctx.ids.version(base.document_id.value)
        snapshot = VersionSnapshot(
            version_id=version_id,
            content=old_content,
            saved_at_ms=event.at_ms,
            saved_by=event.user_id,
        )
        self.snapshots.append(snapshot)
        # "adding a new static property to the base with a link to that
        # copy" — the link is the version id, resolvable via get_version.
        base.attach(
            StaticProperty(f"version-{len(self.snapshots)}", version_id),
            acting_user=event.user_id,
        )
        return snapshot

    def get_version(self, version_id: VersionId) -> bytes:
        """Resolve a version link to its archived content."""
        for snapshot in self.snapshots:
            if snapshot.version_id == version_id:
                return snapshot.content
        raise KeyError(version_id)

    @property
    def version_count(self) -> int:
        """How many snapshots have been archived."""
        return len(self.snapshots)
