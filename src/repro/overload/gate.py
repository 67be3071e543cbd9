"""The per-cache overload facade the read pipeline consults.

One :class:`OverloadGate` is wired onto each cache core that carries an
:class:`OverloadPolicy`; the seam's configuration and its
:class:`OverloadStats` counters are declared here, beside it.  The gate
owns the cache's :class:`~repro.overload.admission.AdmissionController`
and builds the :class:`~repro.overload.budget.DeadlineBudget` for each
read — from the chain's QoS access-time target when one is attached
(the paper's "access time < .25 seconds" promise, §3), else
:data:`DEFAULT_DEADLINE_MS`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CacheError
from repro.overload.admission import (
    AdmissionController,
    AdmissionDecision,
    priority_class,
)
from repro.overload.budget import DeadlineBudget
from repro.placeless.chain import read_plan
from repro.sim.clock import VirtualClock

__all__ = [
    "DEFAULT_DEADLINE_MS",
    "OverloadGate",
    "OverloadPolicy",
    "OverloadStats",
]

#: Allowance for chains without a tighter QoS target: the paper's §3
#: example is 250 ms.
DEFAULT_DEADLINE_MS = 250.0


@dataclass(frozen=True)
class OverloadPolicy:
    """The overload-robustness layer.

    A cache constructed with an overload policy gets an
    :class:`OverloadGate`: reads carry a
    :class:`~repro.overload.budget.DeadlineBudget` derived from the
    chain's QoS access-time target (expiry degrades through the
    serve-stale ladder before raising
    :class:`~repro.errors.DeadlineExceededError`), an admission
    controller sheds the lowest priority class past saturation with
    :class:`~repro.errors.OverloadShedError`, and — on a
    :class:`~repro.cluster.coordinator.CacheCluster` — gray-failing
    shards are hedged to their replica and hard-failing shards routed
    around.
    """

    #: Admission control / load shedding.
    shedding: bool = True
    #: Cluster hedging (ignored by a standalone cache).
    hedging: bool = True
    #: Token-bucket refill rate (reads per virtual second).
    admission_rate_per_s: float = 200.0
    #: Fetch-path reads a shard must have served before the cluster's
    #: :class:`~repro.overload.health.HealthTracker` may call it gray.
    health_min_samples: int = 8

    def __post_init__(self) -> None:
        if self.admission_rate_per_s <= 0:
            raise CacheError(
                "admission_rate_per_s must be positive: "
                f"{self.admission_rate_per_s}"
            )
        if self.health_min_samples < 1:
            raise CacheError(
                f"health_min_samples must be >= 1: {self.health_min_samples}"
            )


@dataclass(slots=True)
class OverloadStats:
    """Counters for the overload layer (deadlines, shedding, hedging).

    ``admitted`` / ``shed_*`` come from the admission gate at the top
    of the read pipeline; shed counts are split by priority class so
    the defining overload property — BULK sheds before QOS, CRITICAL
    never sheds — is directly assertable.  ``deadline_exceeded`` counts
    reads whose budget ran out *before* the fetch began (they degrade
    via serve-stale or fail, but never start work nobody will wait
    for); ``deadline_late`` counts fetches that finished past their
    deadline — served, because the bytes were already paid for.
    ``deadline_violations`` is the invariant counter the CI gate pins
    at zero: work *started* past an expired deadline, impossible by
    construction of the fetch gate.  Hedge and health counters are fed
    by the cluster layer.
    """

    admitted: int = 0
    shed_bulk: int = 0
    shed_qos: int = 0
    shed_critical: int = 0
    deadline_exceeded: int = 0
    deadline_late: int = 0
    deadline_skips: int = 0
    deadline_violations: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    failovers: int = 0
    recoveries: int = 0

    @property
    def shed(self) -> int:
        """Total reads refused by admission control."""
        return self.shed_bulk + self.shed_qos + self.shed_critical


class OverloadGate:
    """Deadline + admission decisions for one cache."""

    def __init__(self, clock: VirtualClock, policy: OverloadPolicy) -> None:
        self.clock = clock
        self.admission: AdmissionController | None = None
        if policy.shedding:
            self.admission = AdmissionController(
                clock, rate_per_s=policy.admission_rate_per_s
            )

    def deadline_ms_for(self, reference) -> float:
        """The read's end-to-end allowance: the chain's QoS target,
        capped at :data:`DEFAULT_DEADLINE_MS`."""
        return min(DEFAULT_DEADLINE_MS, read_plan(reference).qos_deadline_ms)

    def budget_for(
        self, reference, started_ms: float | None = None
    ) -> DeadlineBudget:
        """Build the read's deadline budget.

        ``started_ms`` is when the allowance began — the read's enqueue
        instant if it queued in a batch, else its recorded start — so
        time already spent counts.  The pipeline asks only once a read
        has left the hit prefix: no hit consults a deadline.
        """
        return DeadlineBudget(
            self.clock, self.deadline_ms_for(reference), started_ms=started_ms
        )

    def admit(
        self, reference, enqueued_ms: float | None = None
    ) -> "AdmissionDecision | None":
        """Ask admission for one read; ``None`` when shedding is off."""
        if self.admission is None:
            return None
        return self.admission.admit(
            priority_class(reference), enqueued_ms=enqueued_ms
        )
