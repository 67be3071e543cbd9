"""Per-shard health: EWMA latency, error streaks, gray detection.

A gray-failing shard is the nastiest overload case: it answers — so
nothing trips a breaker — but slowly, so every read routed to it blows
its deadline.  Each shard tells the tracker what it needs where a read
ends: the two read terminals (a served hit, a finished miss) call
:meth:`HealthTracker.observe_read` and a failed fetch calls
:meth:`HealthTracker.observe_error`.  The tracker classifies shards
three ways:

* **healthy** — the default;
* **gray** — EWMA *fetch-path* latency at least
  :data:`GRAY_LATENCY_FACTOR` times the healthiest peer's, with at
  least ``min_samples`` fetch-path observations: the hedge trigger.
  Only reads that actually went through a provider fetch feed the
  latency signals — hits, memo serves and L2 promotions are local and
  fast on *every* shard, gray or not, so mixing them in would both mask
  a slow shard behind its fast hits and make a healthy shard's normal
  miss tail look gray next to a peer serving only hits;
* **unhealthy** — :data:`UNHEALTHY_ERROR_THRESHOLD` consecutive failed
  reads: the placement-failover trigger.  :data:`RECOVERY_SUCCESSES`
  consecutive clean reads restore the shard (and its placement
  stickiness).

The tracker also keeps a bounded ring of recent latencies per shard so
the hedge delay can be set from the healthy fleet's p95 — hedging too
early doubles load for nothing, too late saves nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import WorkloadError

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

    def p95_ms(self) -> float | None:
        """Nearest-rank p95 over the recent fetch-latency ring."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, round(0.95 * len(ordered)) - 1))
        return ordered[rank]


class HealthTracker:
    """Classifies shards as healthy / gray / unhealthy from what their
    read terminals report."""

    def __init__(self, *, min_samples: int = 8) -> None:
        if min_samples < 1:
            raise WorkloadError(f"min_samples must be >= 1: {min_samples}")
        self.min_samples = min_samples
        self._shards: dict[str, ShardHealth] = {}
        #: The shards placement routes around, by name: a router asks
        #: membership (or emptiness) without a call per read.
        self.unhealthy: set[str] = set()
        self.failovers = 0
        self.recoveries = 0

    # -- registration / feeds ------------------------------------------------

    def track(self, name: str) -> ShardHealth:
        """Register *name* (idempotent) and return its health record."""
        health = self._shards.get(name)
        if health is None:
            health = self._shards[name] = ShardHealth(name=name)
        return health

    def forget(self, name: str) -> None:
        """Drop a departed shard's state."""
        self._shards.pop(name, None)
        self.unhealthy.discard(name)

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
                health.ewma_ms += HEALTH_EWMA_ALPHA * (
                    elapsed_ms - health.ewma_ms
                )
        health.consecutive_errors = 0
        if name in self.unhealthy:
            health.consecutive_successes += 1
            if health.consecutive_successes >= RECOVERY_SUCCESSES:
                self.unhealthy.discard(name)
                health.consecutive_successes = 0
                self.recoveries += 1

    def observe_error(self, name: str) -> None:
        """Feed one failed read (fetch error, degradation raise)."""
        health = self.track(name)
        health.errors += 1
        health.consecutive_errors += 1
        health.consecutive_successes = 0
        if (
            name not in self.unhealthy
            and health.consecutive_errors >= UNHEALTHY_ERROR_THRESHOLD
        ):
            self.unhealthy.add(name)
            self.failovers += 1

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
        return health.ewma_ms >= GRAY_LATENCY_FACTOR * floor

    def is_unhealthy(self, name: str) -> bool:
        """True while placement should route around *name*."""
        return name in self.unhealthy

    def p95_healthy_ms(self, excluding: str | None = None) -> float | None:
        """Fetch-path p95 pooled over the non-gray, non-failed shards."""
        pooled: list[float] = []
        for name, health in self._shards.items():
            if name == excluding or name in self.unhealthy:
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
            if name in self.unhealthy:
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
