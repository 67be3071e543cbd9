"""Retry with capped exponential backoff, charged to the virtual clock.

Production caches do not give up after one failed origin fetch; they
retry with backoff and only then degrade.  :class:`RetryPolicy` is the
reusable schedule: attempt ``n`` (1-based) failing waits
``min(max_delay_ms, base_delay_ms * multiplier**(n-1))`` virtual
milliseconds before attempt ``n+1``.  The wait goes through
:meth:`SimContext.charge`, so backoff time is visible in read latencies
and can be asserted against the virtual clock exactly.

The cache manager applies the policy to miss-path fetches and write-back
flushes; anything else that talks to a flaky seam can reuse
:meth:`RetryPolicy.call`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import ProviderError, WorkloadError
from repro.sim.context import SimContext

T = TypeVar("T")

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff over transient provider failures.

    Only a :class:`~repro.errors.ProviderError` (which covers both
    ``ContentUnavailableError`` and ``RepositoryOfflineError``) is
    transient; anything else propagates immediately.

    Parameters
    ----------
    max_attempts:
        Total attempts (first try included); must be ≥ 1.
    base_delay_ms:
        Backoff before the second attempt.
    multiplier:
        Growth factor per further attempt.
    max_delay_ms:
        Cap on any single backoff wait.
    """

    max_attempts: int = 3
    base_delay_ms: float = 5.0
    multiplier: float = 2.0
    max_delay_ms: float = 1_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise WorkloadError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise WorkloadError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise WorkloadError(
                f"multiplier must be >= 1: {self.multiplier}"
            )

    def delay_before_retry_ms(self, failed_attempt: int) -> float:
        """Backoff after the *failed_attempt*-th (1-based) failure."""
        if failed_attempt < 1:
            raise WorkloadError(
                f"failed_attempt is 1-based: {failed_attempt}"
            )
        return min(
            self.max_delay_ms,
            self.base_delay_ms * self.multiplier ** (failed_attempt - 1),
        )

    def total_backoff_ms(self, failures: int) -> float:
        """Virtual time spent backing off across *failures* failures."""
        return sum(
            self.delay_before_retry_ms(n) for n in range(1, failures + 1)
        )

    def call(
        self,
        ctx: "SimContext",
        fn: "Callable[[], T]",
        on_retry: "Callable[[int, float, BaseException], None] | None" = None,
        budget_ms: "float | Callable[[], float] | None" = None,
    ) -> "T":
        """Run *fn* under this policy, charging backoff to *ctx*'s clock.

        ``on_retry(attempt, delay_ms, error)`` fires once per retry
        (after the backoff has been charged), letting callers count
        retries and attribute the delay.  The final failure propagates
        unchanged.

        ``budget_ms`` caps the time retries may burn: when the next
        backoff would sleep longer than the remaining budget, the
        policy gives up immediately — re-raising the last failure
        *without* charging the sleep — instead of burning virtual time
        the caller no longer has.  Pass a float for a fixed allowance
        or a zero-argument callable re-evaluated before each backoff
        (e.g. a deadline budget's ``remaining_ms``); ``None`` (the
        default) keeps the uncapped behaviour.
        """
        attempt = 1
        while True:
            try:
                return fn()
            except ProviderError as error:
                if attempt >= self.max_attempts:
                    raise
                delay_ms = self.delay_before_retry_ms(attempt)
                if budget_ms is not None:
                    remaining = budget_ms() if callable(budget_ms) else budget_ms
                    if delay_ms >= remaining:
                        raise
                    if not callable(budget_ms):
                        # A fixed allowance is drawn down as it is spent.
                        budget_ms = remaining - delay_ms
                ctx.charge(delay_ms)
                if on_retry is not None:
                    on_retry(attempt, delay_ms, error)
                attempt += 1
