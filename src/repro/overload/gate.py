"""The per-cache overload facade the read pipeline consults.

One :class:`OverloadGate` is wired onto each cache core that carries an
:class:`~repro.cache.policies.OverloadPolicy`.  It owns the cache's
:class:`~repro.overload.admission.AdmissionController` and builds the
:class:`~repro.overload.budget.DeadlineBudget` for each read — from the
chain's QoS access-time target when one is attached (the paper's
"access time < .25 seconds" promise, §3), else the policy default.
"""

from __future__ import annotations

import typing

from repro.overload.admission import (
    AdmissionController,
    AdmissionDecision,
    priority_class,
)
from repro.overload.budget import DeadlineBudget
from repro.placeless.chain import read_plan
from repro.sim.clock import VirtualClock

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.policies import OverloadPolicy

__all__ = ["OverloadGate"]


class OverloadGate:
    """Deadline + admission decisions for one cache."""

    def __init__(self, clock: "VirtualClock", policy: "OverloadPolicy") -> None:
        self.clock = clock
        self.policy = policy
        self.admission: AdmissionController | None = None
        if policy.shedding:
            self.admission = AdmissionController(
                clock,
                rate_per_s=policy.admission_rate_per_s,
                burst=policy.admission_burst,
                queue_limit=policy.queue_limit,
                sojourn_threshold_ms=policy.sojourn_threshold_ms,
            )

    def deadline_ms_for(self, reference) -> float | None:
        """The read's end-to-end allowance, or ``None`` for no deadline."""
        if not self.policy.deadlines:
            return None
        budget_ms = self.policy.default_deadline_ms
        if self.policy.deadline_from_qos:
            budget_ms = min(budget_ms, read_plan(reference).qos_deadline_ms)
        return budget_ms

    def budget_for(
        self, reference, started_ms: float | None = None
    ) -> DeadlineBudget | None:
        """Build the read's deadline budget (``None`` = deadlines off).

        ``started_ms`` is when the allowance began — the read's enqueue
        instant if it queued in a batch, else its recorded start — so
        time already spent counts.  The pipeline asks only once a read
        has left the hit prefix: no hit consults a deadline.
        """
        budget_ms = self.deadline_ms_for(reference)
        if budget_ms is None:
            return None
        return DeadlineBudget(self.clock, budget_ms, started_ms=started_ms)

    def admit(
        self, reference, enqueued_ms: float | None = None
    ) -> "AdmissionDecision | None":
        """Ask admission for one read; ``None`` when shedding is off."""
        if self.admission is None:
            return None
        return self.admission.admit(
            priority_class(reference), enqueued_ms=enqueued_ms
        )
