"""End-to-end deadline budgets charged against the virtual clock.

A :class:`DeadlineBudget` is created when a read enters the pipeline
and rides the read context through every step.  It holds an *absolute*
virtual-time deadline, so any work charged to the clock anywhere on the
read path — fetch latency, chain execution, verifier runs, retry
backoff, L2 promotion probes, shard hops, single-flight follower waits
— counts against it automatically; steps only need to *consult* the
budget at the seams where giving up early is cheaper than finishing
late.  The paper's QoS property ("access time < .25 seconds", §3)
supplies the per-document target; documents without one fall back to
:data:`~repro.overload.gate.DEFAULT_DEADLINE_MS`.
"""

from __future__ import annotations


from repro.errors import DeadlineExceededError, WorkloadError
from repro.sim.clock import VirtualClock

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """An absolute virtual-time deadline for one read.

    Parameters
    ----------
    clock:
        The run's virtual clock; :attr:`remaining_ms` and
        :attr:`expired` read it directly, so *every* charge on the read
        path draws the budget down without explicit bookkeeping.
    budget_ms:
        Total end-to-end allowance, measured from ``started_ms``.
        Must be positive (``inf`` is allowed and never expires — the
        ``AlwaysAvailableProperty`` case).
    started_ms:
        When the allowance began.  ``None`` (the default) means
        construction time; ``read_many`` batches pass their enqueue
        instant so queueing delay counts against the deadline too.
        May not lie in the future.
    """

    __slots__ = ("clock", "budget_ms", "started_ms", "deadline_ms")

    def __init__(
        self,
        clock: "VirtualClock",
        budget_ms: float,
        started_ms: float | None = None,
    ) -> None:
        if budget_ms <= 0:
            raise WorkloadError(
                f"deadline budget must be positive: {budget_ms}"
            )
        if started_ms is not None and started_ms > clock.now_ms:
            raise WorkloadError(
                f"deadline budget cannot start in the future: {started_ms}"
            )
        self.clock = clock
        self.budget_ms = budget_ms
        self.started_ms = clock.now_ms if started_ms is None else started_ms
        self.deadline_ms = self.started_ms + budget_ms

    @property
    def remaining_ms(self) -> float:
        """Virtual milliseconds left before the deadline (≥ 0)."""
        return max(0.0, self.deadline_ms - self.clock.now_ms)

    @property
    def expired(self) -> bool:
        """True once the clock has reached or passed the deadline."""
        return self.clock.now_ms >= self.deadline_ms

    @property
    def elapsed_ms(self) -> float:
        """Virtual milliseconds consumed since the budget started."""
        return self.clock.now_ms - self.started_ms

    def exceeded(self, site: str) -> DeadlineExceededError:
        """Build (without raising) the typed error for this budget."""
        return DeadlineExceededError(
            f"deadline budget of {self.budget_ms:.1f}ms exhausted at "
            f"the {site} seam ({self.elapsed_ms:.1f}ms elapsed)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeadlineBudget(budget_ms={self.budget_ms!r}, "
            f"remaining_ms={self.remaining_ms!r})"
        )
