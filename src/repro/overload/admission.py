"""Admission control: token bucket + CoDel-style sojourn shedding.

The controller sits *in front of* the read pipeline.  Every read asks
for admission before any fetch or chain work happens; past saturation
the controller sheds the lowest priority class first, so the reads that
are admitted finish inside their deadlines — goodput stays flat instead
of metastably collapsing when every queued read times out together.

Three priority classes, derived from the paper's QoS property:

* :data:`PRIORITY_CRITICAL` — the chain carries a pinning QoS property
  (§5's "always available"); never shed.
* :data:`PRIORITY_QOS` — the chain carries a finite access-time target;
  shed only under sustained overload (double the sojourn threshold).
* :data:`PRIORITY_BULK` — no QoS promise at all; first to go.

Two signals gate a read:

* **tokens** — a bucket refilled from the *virtual* clock at
  ``rate_per_s`` with capacity :data:`ADMISSION_BURST`; the bucket may
  overdraw (the overdraft models queue depth) down to
  ``-``:data:`QUEUE_LIMIT`, past which non-critical reads are shed
  outright.
* **sojourn** — how long the read has already waited between enqueue
  (batch start) and admission, CoDel's insight that queue *residence
  time*, not length, is the robust overload signal.  With the bucket
  empty, a bulk read is shed once its sojourn passes
  :data:`SOJOURN_THRESHOLD_MS` and a QoS read at twice that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.placeless.chain import read_plan
from repro.sim.clock import VirtualClock

__all__ = [
    "PRIORITY_CRITICAL",
    "PRIORITY_QOS",
    "PRIORITY_BULK",
    "PRIORITY_NAMES",
    "priority_class",
    "AdmissionDecision",
    "AdmissionController",
    "ADMISSION_BURST",
    "QUEUE_LIMIT",
    "SOJOURN_THRESHOLD_MS",
]

#: Token-bucket capacity: reads admitted back to back from idle.
ADMISSION_BURST = 16.0
#: Overdraft bound: queue depth past which non-critical reads shed.
QUEUE_LIMIT = 32.0
#: CoDel-style sojourn threshold (virtual ms); bulk reads shed past it,
#: QoS reads past twice it, critical reads never.
SOJOURN_THRESHOLD_MS = 100.0

#: Highest class: a property on the chain pins the entry ("always
#: available"); these reads are never shed.
PRIORITY_CRITICAL = 0
#: Middle class: a finite QoS access-time target is attached.
PRIORITY_QOS = 1
#: Lowest class: no QoS promise; first sacrificed under overload.
PRIORITY_BULK = 2

PRIORITY_NAMES = ("critical", "qos", "bulk")


def priority_class(reference) -> int:
    """Derive a read's priority class from its (cached) read plan."""
    plan = read_plan(reference)
    if plan.pins:
        return PRIORITY_CRITICAL
    if plan.qos_deadline_ms != float("inf"):
        return PRIORITY_QOS
    return PRIORITY_BULK


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One admission verdict, with the signals that produced it."""

    admitted: bool
    priority: int
    sojourn_ms: float
    queue_depth: float
    #: ``None`` when admitted; otherwise ``"queue-full"`` or
    #: ``"sojourn"`` — which gate shed the read.
    reason: str | None = None


class AdmissionController:
    """Token-bucket + sojourn admission gate over the virtual clock."""

    def __init__(
        self, clock: "VirtualClock", *, rate_per_s: float = 200.0
    ) -> None:
        if rate_per_s <= 0:
            raise WorkloadError(f"rate_per_s must be positive: {rate_per_s}")
        self.clock = clock
        self.rate_per_s = rate_per_s
        self._tokens = ADMISSION_BURST
        self._refilled_ms = clock.now_ms

    def _refill(self, now_ms: float) -> None:
        elapsed_ms = now_ms - self._refilled_ms
        if elapsed_ms > 0:
            self._tokens = min(
                ADMISSION_BURST,
                self._tokens + elapsed_ms * (self.rate_per_s / 1_000.0),
            )
            self._refilled_ms = now_ms

    @property
    def tokens(self) -> float:
        """Current bucket level (negative = overdraft = queue depth)."""
        self._refill(self.clock.now_ms)
        return self._tokens

    def admit(
        self, priority: int, enqueued_ms: float | None = None
    ) -> AdmissionDecision:
        """Decide one read.  Never raises; the caller sheds on refusal.

        ``enqueued_ms`` is when the read entered the system (a batch's
        start instant for ``read_many``); the gap to *now* is its
        sojourn.  ``None`` means it just arrived (sojourn 0).
        """
        now = self.clock.now_ms
        self._refill(now)
        sojourn = 0.0 if enqueued_ms is None else max(0.0, now - enqueued_ms)
        depth = max(0.0, -self._tokens)
        if priority != PRIORITY_CRITICAL:
            if depth >= QUEUE_LIMIT:
                return AdmissionDecision(
                    False, priority, sojourn, depth, "queue-full"
                )
            threshold = SOJOURN_THRESHOLD_MS * (
                2.0 if priority == PRIORITY_QOS else 1.0
            )
            if self._tokens < 1.0 and sojourn >= threshold:
                return AdmissionDecision(
                    False, priority, sojourn, depth, "sojourn"
                )
        self._tokens -= 1.0
        return AdmissionDecision(True, priority, sojourn, depth)
