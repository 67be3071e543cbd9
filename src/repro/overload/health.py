"""Per-shard health: EWMA latency, error streaks, gray detection.

A gray-failing shard is the nastiest overload case: it answers — so
nothing trips a breaker — but slowly, so every read routed to it blows
its deadline.  The tracker watches each shard's instrumentation bus
(terminal ``read`` events for latency, ``fetch failed`` events for
errors) and classifies shards three ways:

* **healthy** — the default;
* **gray** — EWMA *fetch-path* latency at least
  ``gray_latency_factor`` times the healthiest peer's, with at least
  ``min_samples`` fetch-path observations: the hedge trigger.  Only
  reads that actually went through a provider fetch feed the latency
  signals — hits (and signature-only memo serves) are local and fast on
  *every* shard, gray or not, so mixing them in would both mask a
  slow shard behind its fast hits and make a healthy shard's normal
  miss tail look gray next to a peer serving only hits;
* **unhealthy** — ``error_threshold`` consecutive failed reads: the
  placement-failover trigger.  ``recovery_successes`` consecutive
  clean reads restore the shard (and its placement stickiness).

The tracker also keeps a bounded ring of recent latencies per shard so
the hedge delay can be set from the healthy fleet's p95 — hedging too
early doubles load for nothing, too late saves nothing.
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import dataclass, field

from repro.errors import WorkloadError

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.instrumentation import StageEvent

__all__ = ["ShardHealth", "HealthTracker"]

#: Smoothing weight of the per-shard fetch-latency EWMA.
HEALTH_EWMA_ALPHA = 0.2
#: A shard is gray once its EWMA reaches this multiple of the
#: healthiest peer's.
GRAY_LATENCY_FACTOR = 3.0
#: Consecutive failed reads that mark a shard unhealthy, and
#: consecutive clean reads that restore it.
UNHEALTHY_ERROR_THRESHOLD = 3
RECOVERY_SUCCESSES = 3


@dataclass
class ShardHealth:
    """Rolling health state for one shard.

    ``ewma_ms`` and the ``samples`` ring carry *fetch-path* latencies
    only (reads that went through a provider fetch); ``reads`` counts
    every completed read and ``fetches`` the subset that fed latency.
    """

    name: str
    ewma_ms: float | None = None
    samples: "deque[float]" = field(default_factory=lambda: deque(maxlen=128))
    reads: int = 0
    fetches: int = 0
    errors: int = 0
    consecutive_errors: int = 0
    consecutive_successes: int = 0
    #: True while placement routes around this shard.
    failed_over: bool = False

    def p95_ms(self) -> float | None:
        """Nearest-rank p95 over the recent fetch-latency ring."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, round(0.95 * len(ordered)) - 1))
        return ordered[rank]


class HealthTracker:
    """Classifies shards as healthy / gray / unhealthy from bus events."""

    def __init__(
        self,
        *,
        ewma_alpha: float = HEALTH_EWMA_ALPHA,
        gray_latency_factor: float = GRAY_LATENCY_FACTOR,
        min_samples: int = 8,
        error_threshold: int = UNHEALTHY_ERROR_THRESHOLD,
        recovery_successes: int = RECOVERY_SUCCESSES,
        window: int = 128,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise WorkloadError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        if gray_latency_factor <= 1.0:
            raise WorkloadError(
                f"gray_latency_factor must be > 1: {gray_latency_factor}"
            )
        if min_samples < 1 or error_threshold < 1 or recovery_successes < 1:
            raise WorkloadError(
                "min_samples, error_threshold and recovery_successes "
                "must be >= 1"
            )
        if window < 2:
            raise WorkloadError(f"window must be >= 2: {window}")
        self.ewma_alpha = ewma_alpha
        self.gray_latency_factor = gray_latency_factor
        self.min_samples = min_samples
        self.error_threshold = error_threshold
        self.recovery_successes = recovery_successes
        self.window = window
        self._shards: dict[str, ShardHealth] = {}
        self.failovers = 0
        self.recoveries = 0

    # -- registration / feeds ------------------------------------------------

    def track(self, name: str) -> ShardHealth:
        """Register *name* (idempotent) and return its health record."""
        health = self._shards.get(name)
        if health is None:
            health = ShardHealth(name=name)
            health.samples = deque(maxlen=self.window)
            self._shards[name] = health
        return health

    def forget(self, name: str) -> None:
        """Drop a departed shard's state."""
        self._shards.pop(name, None)

    def observe_read(
        self, name: str, elapsed_ms: float, *, fetched: bool = True
    ) -> None:
        """Feed one completed read; latency counts only when *fetched*."""
        health = self.track(name)
        health.reads += 1
        if fetched:
            health.fetches += 1
            health.samples.append(elapsed_ms)
            if health.ewma_ms is None:
                health.ewma_ms = elapsed_ms
            else:
                health.ewma_ms += self.ewma_alpha * (
                    elapsed_ms - health.ewma_ms
                )
        health.consecutive_errors = 0
        if health.failed_over:
            health.consecutive_successes += 1
            if health.consecutive_successes >= self.recovery_successes:
                health.failed_over = False
                health.consecutive_successes = 0
                self.recoveries += 1

    def observe_error(self, name: str) -> None:
        """Feed one failed read (fetch error, degradation raise)."""
        health = self.track(name)
        health.errors += 1
        health.consecutive_errors += 1
        health.consecutive_successes = 0
        if (
            not health.failed_over
            and health.consecutive_errors >= self.error_threshold
        ):
            health.failed_over = True
            self.failovers += 1

    #: Terminal read dispositions answered without a provider fetch —
    #: local work that is fast on every shard, excluded from the
    #: latency signals (see the module docstring).
    _FAST_PATHS = frozenset({
        "hit", "revalidated", "miss-memoized", "miss-promoted",
    })

    #: The stages :meth:`on_event` consumes.
    stages = frozenset({"read", "fetch"})

    def on_event(self, name: str, event: "StageEvent") -> None:
        """Instrumentation-bus subscriber seam for one shard."""
        if event.stage == "read":
            self.observe_read(
                name,
                event.elapsed_ms,
                fetched=event.outcome not in self._FAST_PATHS,
            )
        elif event.stage == "fetch" and event.outcome == "failed":
            self.observe_error(name)

    # -- classification ------------------------------------------------------

    def _healthy_floor_ms(self, excluding: str) -> float | None:
        """Lowest peer fetch EWMA with enough samples (the baseline)."""
        floor: float | None = None
        for name, health in self._shards.items():
            if name == excluding or health.ewma_ms is None:
                continue
            if health.fetches < self.min_samples:
                continue
            if floor is None or health.ewma_ms < floor:
                floor = health.ewma_ms
        return floor

    def is_gray(self, name: str) -> bool:
        """True when *name*'s fetches run far slower than a peer's.

        Both sides of the comparison are fetch-path EWMAs, so the
        classification is like-for-like: a shard serving mostly hits
        neither hides a slow fetch path nor makes a peer's ordinary
        miss tail look gray.  Because hedged (cancelled) fetches feed
        no samples, the EWMA freezes while a shard is gray — the
        cluster's probe-refills supply the fresh samples that let a
        recovered shard's EWMA decay back under the threshold.
        """
        health = self._shards.get(name)
        if health is None or health.ewma_ms is None:
            return False
        if health.fetches < self.min_samples:
            return False
        floor = self._healthy_floor_ms(excluding=name)
        if floor is None or floor <= 0.0:
            return False
        return health.ewma_ms >= self.gray_latency_factor * floor

    def is_unhealthy(self, name: str) -> bool:
        """True while placement should route around *name*."""
        health = self._shards.get(name)
        return health is not None and health.failed_over

    def p95_healthy_ms(self, excluding: str | None = None) -> float | None:
        """Fetch-path p95 pooled over the non-gray, non-failed shards."""
        pooled: list[float] = []
        for name, health in self._shards.items():
            if name == excluding or health.failed_over:
                continue
            if self.is_gray(name):
                continue
            pooled.extend(health.samples)
        if not pooled:
            return None
        pooled.sort()
        rank = max(0, min(len(pooled) - 1, round(0.95 * len(pooled)) - 1))
        return pooled[rank]

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Per-shard health table for introspection (the doctor)."""
        table: dict[str, dict[str, object]] = {}
        for name, health in sorted(self._shards.items()):
            if health.failed_over:
                state = "unhealthy"
            elif self.is_gray(name):
                state = "gray"
            else:
                state = "healthy"
            table[name] = {
                "state": state,
                "reads": health.reads,
                "fetches": health.fetches,
                "errors": health.errors,
                "consecutive_errors": health.consecutive_errors,
                "ewma_ms": health.ewma_ms,
                "p95_ms": health.p95_ms(),
            }
        return table
