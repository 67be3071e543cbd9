"""Access-control and watermarking properties.

Two behaviours a deployed Placeless system needs that stress the caching
layer in opposite directions:

* :class:`AccessControlProperty` denies operations to non-authorized
  users *before* any content flows — the error propagates through the
  read path, so a cache never stores anything for a denied user;
* :class:`WatermarkProperty` stamps its owner's identity into the
  content; attached to each user's reference it makes every user's
  version byte-distinct — the worst case for content sharing — and its
  transform signature names the owner, so the transform memo correctly
  refuses to share.

The access check handles every read event, so a chain carrying it is
not ``ReadPlan.shareable``: no user is served bytes another was allowed
to read.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PermissionDeniedError
from repro.events.types import Event, EventType
from repro.ids import UserId
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream
from repro.streams.transforms import BufferedTransformInputStream

__all__ = ["AccessControlProperty", "WatermarkProperty"]

#: The access check's interest set per ``(deny_reads, deny_writes)``.
_ACCESS_INTEREST = {
    (True, True): frozenset({EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM}),
    (True, False): frozenset({EventType.GET_INPUT_STREAM}),
    (False, True): frozenset({EventType.GET_OUTPUT_STREAM}),
    (False, False): frozenset(),
}


class AccessControlProperty(ActiveProperty):
    """Denies reads/writes by users outside the allowed set.

    Attach at the base document to protect the document universally, or
    at a reference to guard one user's delegated handle.  The owner of
    the attachment is always allowed (you cannot lock yourself out).
    """

    execution_cost_ms = 0.05

    def __init__(
        self,
        allowed: set[UserId],
        deny_reads: bool = True,
        deny_writes: bool = True,
        name: str = "access-control",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self.allowed = set(allowed)
        self.deny_reads = deny_reads
        self.deny_writes = deny_writes
        self.denials = 0

    def events_of_interest(self):
        return _ACCESS_INTEREST[bool(self.deny_reads), bool(self.deny_writes)]

    def _is_allowed(self, user: UserId | None) -> bool:
        if user is None:
            return True  # system-internal operations
        return user in self.allowed or user == self.owner

    def handle(self, event: Event) -> Any:
        if self._is_allowed(event.user_id):
            return None
        self.denials += 1
        raise PermissionDeniedError(
            f"{event.user_id} may not {event.type.value} "
            f"{event.document_id}"
        )


class WatermarkProperty(ActiveProperty):
    """Stamps its owner's identity into every read.

    Attach one to each user's reference to mark every user's copy.  The
    stamp is the attachment's owner, never the reader of the moment, so
    the output is a function of the property's configuration alone: the
    transform signature embeds the same *owner*, two users carrying
    "the same" watermark property produce distinct chain signatures,
    and the cache never shares bytes or memoized output across them.
    A base-document watermark stamps the document's owner for everyone.
    """

    execution_cost_ms = 0.2
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM})

    def __init__(self, name: str = "watermark", version: int = 1) -> None:
        super().__init__(name, version)

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        stamp = f"\n-- watermarked for {self.owner} --".encode()
        return BufferedTransformInputStream(stream, lambda data: data + stamp)

    def transform_signature(self) -> str:
        return f"watermark/{self.name}/v{self.version}/{self.owner}"
