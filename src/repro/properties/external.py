"""External-dependency tracking, placeable in a notifier or a verifier.

§3: "invalidation policies could either be placed in a notifier or a
verifier.  For example, tracking external information that an active
property depends on could be handled by a notifier installed by that
property or a verifier returned by the property to the cache."

:class:`ExternalDependencyProperty` models an active property whose
transformation depends on an external value (``preferredLanguage``, a
database row, a stock feed — anything outside Placeless).  The *same*
invalidation policy — "the cached entry is stale once the value changed"
— can be deployed two ways:

* ``mode="verifier"`` — every cache hit runs a verifier that samples the
  external value and compares against the fill-time snapshot: perfectly
  fresh, but the sampling cost lands on the hit path;
* ``mode="notifier"`` — the property polls the value on a timer at the
  Placeless server and pushes an invalidation when it changes: hits stay
  cheap, but freshness is bounded by the polling period and the polling
  load lands on the system.

The A10 bench quantifies the trade-off, completing §5's deferred
evaluation.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.contract.consistency import Invalidation, InvalidationReason
from repro.contract.verifiers import PredicateVerifier, Verifier
from repro.errors import PropertyError
from repro.events.timers import TimerService, TimerSubscription
from repro.events.types import Event, EventType
from repro.ids import CacheId
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream
from repro.streams.transforms import BufferedTransformInputStream

__all__ = ["ExternalDependencyProperty"]


class ExternalDependencyProperty(ActiveProperty):
    """A read-path transform parameterized by an external value.

    The transform stamps the current external value into the content (a
    stand-in for "render according to preferredLanguage=..."), so a stale
    cache entry is *observably* wrong — staleness is measurable, not
    hypothetical.

    Parameters
    ----------
    observe:
        Samples the external value.
    mode:
        ``"verifier"`` or ``"notifier"`` — where the invalidation policy
        runs (see module docstring).
    timers, bus, cache_id:
        Required in notifier mode: the timer service that drives polling,
        and the bus/cache the invalidation is delivered to (*bus* is
        anything with ``deliver(cache_id, invalidation)`` — the cache's
        ``InvalidationBus``).
    poll_period_ms:
        Notifier-mode polling period; the staleness window.
    sample_cost_ms:
        Cost of sampling the external source once (charged per hit in
        verifier mode; per poll in notifier mode).
    """

    execution_cost_ms = 0.2
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM})
    #: Notifier mode polls on the timer too.
    _polled_interest = interest | {EventType.TIMER}

    def __init__(
        self,
        observe: Callable[[], Any],
        mode: str = "verifier",
        timers: TimerService | None = None,
        bus: Any = None,
        cache_id: CacheId | None = None,
        poll_period_ms: float = 5000.0,
        sample_cost_ms: float = 0.3,
        name: str = "external-dependency",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        if mode not in ("verifier", "notifier"):
            raise PropertyError(f"unknown mode: {mode!r}")
        if mode == "notifier" and (timers is None or bus is None or cache_id is None):
            raise PropertyError(
                "notifier mode needs timers, bus and cache_id"
            )
        self.observe = observe
        self.mode = mode
        self.timers = timers
        self.bus = bus
        self.cache_id = cache_id
        self.poll_period_ms = poll_period_ms
        self.sample_cost_ms = sample_cost_ms
        self.polls = 0
        self.invalidations_pushed = 0
        self._subscription: TimerSubscription | None = None
        self._last_seen: Any = None

    def events_of_interest(self):
        return self._polled_interest if self.mode == "notifier" else self.interest

    # -- the transform itself -------------------------------------------------

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        value = self.observe()
        self._last_seen = value
        stamp = f"\n[external={value}]".encode()
        return BufferedTransformInputStream(stream, lambda data: data + stamp)

    def transform_signature(self) -> str:
        # The external value itself is NOT part of the signature — the
        # whole point is that the value changes underneath an unchanged
        # chain, which only notifiers/verifiers can catch.
        return f"external/{self.name}/v{self.version}"

    # -- verifier placement ------------------------------------------------------

    def make_verifier(self) -> Verifier | None:
        if self.mode != "verifier":
            return None
        snapshot = self.observe()

        def still_current(now_ms: float, content: bytes) -> bool:
            self.polls += 1
            return self.observe() == snapshot

        return PredicateVerifier(
            still_current,
            cost_ms=self.sample_cost_ms,
            label=f"external:{self.name}",
            observed=snapshot,
        )

    # -- notifier placement ---------------------------------------------------------

    def on_attach(self) -> None:
        if self.mode != "notifier":
            return
        assert self.timers is not None and self.property_id is not None
        base = getattr(self.attachment, "base", self.attachment)
        self._last_seen = self.observe()
        self._subscription = self.timers.subscribe_periodic(
            property_id=self.property_id,
            document_id=base.document_id,
            period_ms=self.poll_period_ms,
            deliver=self,
        )

    def on_detach(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def handle(self, event: Event) -> Any:
        if event.type is not EventType.TIMER or self.mode != "notifier":
            return None
        assert self.attachment is not None
        assert self.bus is not None and self.cache_id is not None
        # Poll at the server: charge the sampling cost there.
        self.attachment.ctx.charge(self.sample_cost_ms)
        self.polls += 1
        current = self.observe()
        if current == self._last_seen:
            return None
        self._last_seen = current
        base = getattr(self.attachment, "base", self.attachment)
        invalidation = Invalidation(
            reason=InvalidationReason.EXTERNAL_CHANGED,
            document_id=base.document_id,
            user_id=self.owner if self.site and self.site.value == "reference" else None,
            at_ms=event.at_ms,
            origin="notifier",
        )
        self.bus.deliver(self.cache_id, invalidation)
        self.invalidations_pushed += 1
        return invalidation
