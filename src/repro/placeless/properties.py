"""Property model: static labels and active (code-carrying) properties.

"Properties can be static labels like 'budget related', or active objects
that implement a desired behavior" (§1).  Active properties are event
driven (§2): on attachment they register, once, for the set of events
they care about; when dispatched on the read or write path they may
interpose custom streams; and for caching (§3) they can vote a
cacheability level, return a verifier, and contribute their execution
time to the replacement cost.
"""

from __future__ import annotations

import abc
import enum
import typing
from typing import AbstractSet, Any

from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import Verifier
from repro.events.dispatcher import Registration
from repro.events.types import Event, EventType
from repro.ids import PropertyId, UserId
from repro.streams.base import InputStream, OutputStream

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.placeless.document import BaseDocument
    from repro.placeless.reference import DocumentReference

__all__ = ["AttachmentSite", "Property", "StaticProperty", "ActiveProperty"]


class AttachmentSite(enum.Enum):
    """Where a property is attached.

    Properties on the base document are *universal* (seen by every user
    with a reference); properties on a reference are *personal* (seen only
    by the reference's owner).
    """

    BASE = "base"
    REFERENCE = "reference"


class Property(abc.ABC):
    """Common behaviour of static and active properties.

    A property instance is attached to at most one document object at a
    time; identity (:class:`~repro.ids.PropertyId`) is assigned at attach
    time by the owning kernel's id generator.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.property_id: PropertyId | None = None
        self.site: AttachmentSite | None = None
        self.owner: UserId | None = None
        self._attachment: "BaseDocument | DocumentReference | None" = None

    @property
    def is_attached(self) -> bool:
        """True while the property is attached to a document object."""
        return self._attachment is not None

    @property
    def attachment(self) -> "BaseDocument | DocumentReference | None":
        """The document object this property is attached to, if any."""
        return self._attachment

    @property
    @abc.abstractmethod
    def is_active(self) -> bool:
        """True for active (code-carrying) properties."""

    def _bind(
        self,
        attachment: "BaseDocument | DocumentReference",
        property_id: PropertyId,
        site: AttachmentSite,
        owner: UserId,
    ) -> None:
        """Called by the document object when the property is attached."""
        self._attachment = attachment
        self.property_id = property_id
        self.site = site
        self.owner = owner

    def _unbind(self) -> None:
        """Called by the document object when the property is detached."""
        self._attachment = None
        self.site = None

    def describe(self) -> str:
        """Human-readable summary for traces."""
        kind = "active" if self.is_active else "static"
        return f"{kind} property {self.name!r} ({self.property_id})"


class StaticProperty(Property):
    """A static label: a statement about the document's context.

    Examples from the paper: ``budget related``, ``1999 workshop
    submission``, ``read by 11/30``.  Static properties carry a value and
    never register for events.
    """

    def __init__(self, name: str, value: Any = True) -> None:
        super().__init__(name)
        self.value = value

    @property
    def is_active(self) -> bool:
        return False


class ActiveProperty(Property):
    """Base class for active properties.

    Subclasses declare the events they want in :attr:`interest` (one
    frozenset per class, shared by every instance), or per configuration
    by overriding :meth:`events_of_interest` — registered once, as one
    :class:`~repro.events.dispatcher.Registration` whose handler is the
    property itself (:meth:`__call__`), when the property is attached —
    and override the hooks that matter to them:

    * :meth:`handle` — arbitrary event processing;
    * :meth:`wrap_input` / :meth:`wrap_output` — custom stream
      interposition on the read / write path (only consulted when the
      property registered for the corresponding stream event);
    * :meth:`cacheability_vote` — the property's vote, aggregated to the
      most restrictive across the read path;
    * :meth:`make_verifier` — an optional verifier handed to the cache
      along with the content;
    * :attr:`execution_cost_ms` — simulated execution time, charged per
      read-path dispatch and accumulated into the replacement cost.

    ``version`` participates in the transform signature so upgrading a
    property ("If Eyal were to upgrade his spelling corrector to a new
    release") changes the signature and triggers MODIFY_PROPERTY-based
    invalidation.
    """

    #: Simulated execution time per dispatch, in virtual milliseconds.
    execution_cost_ms: float = 0.1
    #: The event types every instance registers for (default: none).
    interest: frozenset[EventType] = frozenset()

    def __init__(self, name: str, version: int = 1) -> None:
        super().__init__(name)
        self.version = version
        self.dispatch_count = 0
        #: Made at attach and cancelled at detach, by the holder.
        self._registration: Registration | None = None

    @property
    def is_active(self) -> bool:
        return True

    # -- registration ------------------------------------------------------

    def events_of_interest(self) -> AbstractSet[EventType]:
        """Event types this property registers for: :attr:`interest`."""
        return self.interest

    def __call__(self, event: Event) -> Any:
        """Run one dispatched event: the registration's handler."""
        self.dispatch_count += 1
        return self.handle(event)

    # -- behaviour hooks -----------------------------------------------------

    def on_attach(self) -> None:
        """Called once after binding and event registration (default: no-op).

        Properties that need infrastructure — e.g. the replication
        property subscribing to a timer — set it up here, reading their
        attachment point from :attr:`attachment`.
        """

    def on_detach(self) -> None:
        """Called just before the registration is cancelled (default: no-op)."""

    def handle(self, event: Event) -> Any:
        """Process one event (default: no-op)."""

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        """Interpose on the read path (default: pass-through)."""
        return stream

    def wrap_output(self, stream: OutputStream, event: Event) -> OutputStream:
        """Interpose on the write path (default: pass-through)."""
        return stream

    # -- caching hooks ---------------------------------------------------------

    def cacheability_vote(self) -> Cacheability | None:
        """This property's cacheability vote, or ``None`` to abstain."""
        return None

    def make_verifier(self) -> Verifier | None:
        """A verifier to hand to the cache, or ``None``."""
        return None

    def requests_pinning(self) -> bool:
        """True when this property asks the cache to pin the entry.

        §5's "always available" QoS requirement: a pinned entry is never
        chosen as a replacement victim.  Default: no pinning.
        """
        return False

    def access_time_target_ms(self) -> float:
        """This property's QoS access-time target (§3's "access time
        < .25 seconds"); ``inf`` — the default — declares none."""
        return float("inf")

    def replacement_cost_bonus_ms(self) -> float:
        """Extra replacement cost this property contributes beyond its
        execution time.

        §5 suggests QoS properties "influence cache replacement ... to
        inflate replacement costs"; they do it through this hook.
        Default: no bonus.
        """
        return 0.0

    #: True when this property transforms content on the read path:
    #: adding, removing or modifying it invalidates cached entries (§3),
    #: and the containment layer treats it as *required*.
    transforms_reads: bool = False

    def transform_signature(self) -> str:
        """This property's read-path identity.

        One string per property on a read chain, whether it transforms
        content or not: the ordered list of them is the chain signature
        an entry records (``PathMeta.chain_signature``), and their
        position-tagged composition is the chain fingerprint the
        transform memo keys on.  Two chains with equal lists produce
        byte-identical content from the same source bytes, which is what
        lets the cache share one version between users.

        The default covers code identity (the fully-qualified class),
        the attachment name and the release version, so :meth:`upgrade`
        — the paper's MODIFY_PROPERTY case — changes it.  A property
        whose output depends on further configuration (a word table, a
        target language, a key, a length) must put it here too, or two
        differently-configured instances would share output.
        """
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}/{self.name}/v{self.version}"

    # -- modification ------------------------------------------------------------

    def upgrade(self, new_version: int | None = None) -> None:
        """Upgrade the property to a new release (a *modification*, §3).

        Bumps the version and raises a MODIFY_PROPERTY event through the
        attachment point so notifiers can invalidate dependent cache
        entries.
        """
        self.version = new_version if new_version is not None else self.version + 1
        if self._attachment is not None:
            self._attachment.property_modified(self)
