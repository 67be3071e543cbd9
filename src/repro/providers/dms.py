"""Document-management-system bit-provider.

Section 1 lists "document management systems (DMS)" among the content
sources Placeless attaches properties to.  The simulated DMS is a
versioned repository with checkout/checkin semantics: every checkin
creates an immutable new version; the provider serves the head version
and its verifier probes the head version number, so both in-band and
out-of-band checkins are caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contract.verifiers import ModificationTimeVerifier, Verifier
from repro.errors import ContentUnavailableError, ProviderError
from repro.providers.base import BitProvider
from repro.sim.clock import VirtualClock
from repro.sim.context import SimContext

__all__ = ["DocumentManagementSystem", "DMSProvider"]


@dataclass
class _DmsItem:
    """One managed document: immutable version history plus lock state."""

    versions: list[bytes] = field(default_factory=list)
    checkin_times_ms: list[float] = field(default_factory=list)
    locked_by: str | None = None


@dataclass
class DocumentManagementSystem:
    """A versioned repository with exclusive checkout locks."""

    clock: VirtualClock
    _items: dict[str, _DmsItem] = field(default_factory=dict)

    def create(self, name: str, content: bytes) -> None:
        """Register a new managed document with an initial version."""
        if name in self._items:
            raise ProviderError(f"document already managed: {name}")
        item = _DmsItem()
        item.versions.append(bytes(content))
        item.checkin_times_ms.append(self.clock.now_ms)
        self._items[name] = item

    def head(self, name: str) -> bytes:
        """Content of the newest version."""
        return self._item(name).versions[-1]

    def head_version(self, name: str) -> int:
        """1-based version number of the newest version."""
        return len(self._item(name).versions)

    def version(self, name: str, number: int) -> bytes:
        """Content of a specific (1-based) version."""
        item = self._item(name)
        if not 1 <= number <= len(item.versions):
            raise ContentUnavailableError(
                f"{name} has no version {number}"
            )
        return item.versions[number - 1]

    def checkout(self, name: str, who: str) -> bytes:
        """Take the exclusive edit lock and return the head content."""
        item = self._item(name)
        if item.locked_by is not None and item.locked_by != who:
            raise ProviderError(
                f"{name} is checked out by {item.locked_by}"
            )
        item.locked_by = who
        return item.versions[-1]

    def checkin(self, name: str, who: str, content: bytes) -> int:
        """Create a new version and release the lock; returns its number."""
        item = self._item(name)
        if item.locked_by is not None and item.locked_by != who:
            raise ProviderError(
                f"{name} is checked out by {item.locked_by}"
            )
        item.versions.append(bytes(content))
        item.checkin_times_ms.append(self.clock.now_ms)
        item.locked_by = None
        return len(item.versions)

    def documents(self) -> list[str]:
        """All managed document names, sorted."""
        return sorted(self._items)

    def _item(self, name: str) -> _DmsItem:
        try:
            return self._items[name]
        except KeyError:
            raise ContentUnavailableError(
                f"not managed by DMS: {name}"
            ) from None


class DMSProvider(BitProvider):
    """Serves the head version of one DMS-managed document.

    In-band stores check in a new version under a system principal; the
    verifier probes the head version number.
    """

    repository_name = "dms"

    def __init__(
        self,
        ctx: SimContext,
        dms: DocumentManagementSystem,
        name: str,
        principal: str = "placeless",
    ) -> None:
        super().__init__(ctx)
        self.dms = dms
        self.name = name
        self.principal = principal

    def make_verifier(self) -> Verifier:
        return ModificationTimeVerifier(
            probe=lambda: float(self.dms.head_version(self.name)),
            observed_mtime_ms=float(self.dms.head_version(self.name)),
            cost_ms=0.4,
        )

    def _retrieve(self) -> bytes:
        return self.dms.head(self.name)

    def _store(self, content: bytes) -> None:
        self.dms.checkout(self.name, self.principal)
        self.dms.checkin(self.name, self.principal, content)
