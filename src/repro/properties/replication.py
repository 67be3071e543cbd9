"""The timer-driven replication property from Figure 1.

"One of Eyal's personal properties maintains a copy of the content both
at PARC and at Rice ... The replication property is invoked only as a
result of timer events, assuming that Eyal's replication between PARC and
Rice occurs only once at the end of the day." (§2)

On attach, the property subscribes a periodic timer with the kernel's
timer service; each firing copies the document's current source content
to a replica target (a path in a — possibly remote — simulated
filesystem).  The copy is made from the *source* bytes, not the
transformed read path, matching a bit-level replica.
"""

from __future__ import annotations

from typing import Any

from repro.events.timers import TimerService, TimerSubscription
from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.providers.simfs import SimulatedFileSystem

__all__ = ["ReplicationProperty"]

#: "once at the end of the day"
ONE_DAY_MS = 24 * 60 * 60 * 1000.0


class ReplicationProperty(ActiveProperty):
    """Copies source content to a replica filesystem on a periodic timer."""

    execution_cost_ms = 1.0
    interest = frozenset({EventType.TIMER})

    def __init__(
        self,
        timers: TimerService,
        replica_fs: SimulatedFileSystem,
        replica_path: str,
        period_ms: float = ONE_DAY_MS,
        name: str = "replicate",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self._timers = timers
        self.replica_fs = replica_fs
        self.replica_path = replica_path
        self.period_ms = period_ms
        self.replications = 0
        self._subscription: TimerSubscription | None = None

    def on_attach(self) -> None:
        assert self.property_id is not None, "property must be bound first"
        base = getattr(self.attachment, "base", self.attachment)
        self._subscription = self._timers.subscribe_periodic(
            property_id=self.property_id,
            document_id=base.document_id,
            period_ms=self.period_ms,
            deliver=self,
        )

    def on_detach(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def handle(self, event: Event) -> Any:
        if event.type is not EventType.TIMER:
            return None
        base = getattr(self.attachment, "base", self.attachment)
        if base is None:
            return None
        content = base.provider.peek()
        self.replica_fs.write(self.replica_path, content)
        self.replications += 1
        return self.replica_path

    @property
    def replica_content(self) -> bytes:
        """What the replica currently holds (empty before first firing)."""
        if not self.replica_fs.exists(self.replica_path):
            return b""
        return self.replica_fs.read(self.replica_path)
