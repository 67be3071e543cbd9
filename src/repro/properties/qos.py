"""Quality-of-Service properties (§5 future work, implemented here).

"properties may be used to state Quality-of-Service (QOS) requirements
such as 'access time < .25 seconds', which in turn can benefit from
caching" (§3); and "One possibility for QoS properties to influence cache
replacement is to inflate replacement costs" (§5).

:class:`QoSProperty` declares a target access time; its replacement-cost
bonus is ``inflation_ms`` (by default scaled off the target: tighter
targets inflate more), which raises the document's Greedy-Dual-Size value
so it stays resident under pressure.  The A6 ablation bench measures how
well this keeps QoS documents under their target.
"""

from __future__ import annotations

from repro.events.types import EventType
from repro.placeless.properties import ActiveProperty

__all__ = ["QoSProperty"]

#: Default inflation per millisecond *under* a 1-second target: a 250 ms
#: target yields a 750 ms-equivalent bonus, dwarfing typical fetch costs.
_DEFAULT_INFLATION_SCALE = 1.0


class QoSProperty(ActiveProperty):
    """Declares an access-time target and inflates replacement cost."""

    execution_cost_ms = 0.02
    # Registering for the read path makes the property execute there,
    # which is what lets it contribute its replacement-cost bonus.
    interest = frozenset({EventType.GET_INPUT_STREAM})

    def __init__(
        self,
        max_access_time_ms: float = 250.0,
        inflation_ms: float | None = None,
        name: str = "qos-access-time",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self.max_access_time_ms = max_access_time_ms
        if inflation_ms is None:
            inflation_ms = max(
                0.0, (1000.0 - max_access_time_ms) * _DEFAULT_INFLATION_SCALE
            )
        self.inflation_ms = inflation_ms
        #: Access times observed for this document (filled by callers or
        #: benches that track whether the QoS target is met).
        self.observed_access_times_ms: list[float] = []

    def replacement_cost_bonus_ms(self) -> float:
        return self.inflation_ms

    def access_time_target_ms(self) -> float:
        return self.max_access_time_ms

    def record_access(self, elapsed_ms: float) -> None:
        """Record one observed access latency against the target."""
        self.observed_access_times_ms.append(elapsed_ms)

    @property
    def violations(self) -> int:
        """How many recorded accesses exceeded the target."""
        return sum(
            1
            for elapsed in self.observed_access_times_ms
            if elapsed > self.max_access_time_ms
        )

    @property
    def compliance(self) -> float:
        """Fraction of recorded accesses meeting the target (1.0 if none)."""
        if not self.observed_access_times_ms:
            return 1.0
        met = len(self.observed_access_times_ms) - self.violations
        return met / len(self.observed_access_times_ms)


class AlwaysAvailableProperty(QoSProperty):
    """§5's "always available" QoS requirement: pin the cached entry.

    Inflating the replacement cost makes eviction *unlikely*; "always
    available" demands it never happen, so this property asks the cache
    to pin the entry outright.  A pinned entry still participates in
    consistency (notifiers and verifiers invalidate it normally — an
    always-available *stale* copy would be worse than a refetch), but the
    replacement policy never selects it as a victim.
    """

    def __init__(
        self, name: str = "qos-always-available", version: int = 1
    ) -> None:
        super().__init__(
            max_access_time_ms=float("inf"), inflation_ms=0.0,
            name=name, version=version,
        )

    def requests_pinning(self) -> bool:
        return True
