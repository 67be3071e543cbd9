"""Cache statistics, itemised the way the paper's trade-offs need.

"In general, verifier execution trades-off cache consistency with cache
access time latencies, while notifier execution adds load to the
Placeless system." (§3)  The A1 bench therefore needs, per run: hit/miss
counts and latencies, verifier executions and their total cost, notifier
deliveries (server load), invalidations attributed per reason, and
staleness (hits that served out-of-date bytes, measurable only in
simulation where ground truth is known).

Each counter is incremented at the line that decides it — the hit in
:meth:`~repro.cache.core.CacheCore.hit_served`, a miss in
``ReadPipeline._finish``, an eviction in ``evict_to_capacity`` — beside
the stage event that line reports.  :attr:`CacheStats.RULES` states
the same counters as a function of the event stream; no cache is wired
to it (it is deprecated with
:class:`~repro.cache.instrumentation.CounterProjection`), and the
tests project it as the oracle the direct writes must match.

:class:`ConcurrencyStats` (the single-flight plane's counters) and
:func:`merged`, which sums any of the stats dataclasses into a fleet-
or cluster-wide total, live here too.
"""

from __future__ import annotations

import dataclasses
import typing
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.cache.instrumentation import ELAPSED
from repro.contract.consistency import InvalidationReason

__all__ = ["CacheStats", "ConcurrencyStats", "merged"]

#: Terminal ``read`` events: the dispositions served from the entry
#: table are hits; everything else a read reports is a miss.
_HIT = (
    ("hits", 1),
    ("hit_latency_ms", ELAPSED),
    ("bytes_served_from_cache", "bytes"),
)


def merged(parts: Iterable):
    """One stats object holding the sum of *parts* (same dataclass, at
    least one): numeric fields add, in order; ``Counter``/``dict``
    fields merge key-wise.  Fleet- and cluster-wide totals."""
    parts = list(parts)
    total = type(parts[0])()
    for part in parts:
        for member in dataclasses.fields(part):
            value = getattr(part, member.name)
            mine = getattr(total, member.name)
            if isinstance(value, dict):
                for key, count in value.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(total, member.name, mine + value)
    return total


def _count_invalidation(stats: "CacheStats", event) -> None:
    """``invalidation/*``: the counter is keyed by the payload's reason."""
    stats.record_invalidation(event.payload["reason"])


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    #: Reads that could not be cached (UNCACHEABLE vote) — always misses.
    uncacheable_reads: int = 0
    #: Hits whose verifier invalidated the entry (counted as misses too).
    verifier_invalidations: int = 0
    #: Hits whose verifier patched the entry in place (REVALIDATED).
    verifier_revalidations: int = 0
    verifier_executions: int = 0
    verifier_cost_ms: float = 0.0
    notifier_deliveries: int = 0
    forwarded_reads: int = 0
    forwarded_writes: int = 0
    evictions: int = 0
    writes_through: int = 0
    writes_backed: int = 0
    flushes: int = 0
    #: Collection-prefetch requests accepted / fills actually performed.
    prefetch_requests: int = 0
    prefetch_fills: int = 0
    #: Hits served from entries that a prefetch (not a demand read) filled.
    prefetched_hits: int = 0
    #: Stale bytes served because the refetch failed (availability mode).
    stale_served_on_error: int = 0
    #: Stale-serve candidates rejected because the entry exceeded the
    #: configured staleness bound (the read failed instead).
    stale_serve_rejected: int = 0
    #: Miss-path fetch retries performed, and the virtual backoff charged.
    retries: int = 0
    retry_delay_ms: float = 0.0
    #: Fetches that still failed after exhausting the retry policy.
    fetch_failures: int = 0
    #: Verifiers quarantined after repeated failures, and the misses the
    #: quarantine forced.
    quarantined_verifiers: int = 0
    quarantine_forced_misses: int = 0
    #: Verifier invalidations that caught a notification the bus had
    #: lost (the lost-callback problem, detected after the fact).
    dropped_notifier_detected: int = 0
    #: Write-back flushes that failed (the dirty buffer is retained).
    flush_failures: int = 0
    bytes_served_from_cache: int = 0
    bytes_filled: int = 0
    hit_latency_ms: float = 0.0
    miss_latency_ms: float = 0.0
    invalidations: Counter = field(default_factory=Counter)

    def record_invalidation(self, reason: InvalidationReason) -> None:
        """Attribute one invalidation to its reason."""
        self.invalidations[reason] += 1

    @property
    def lookups(self) -> int:
        """Total read attempts through the cache."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 when no lookups)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def mean_hit_latency_ms(self) -> float:
        """Average virtual latency of a hit (0.0 when no hits)."""
        return self.hit_latency_ms / self.hits if self.hits else 0.0

    def invalidations_by_class(self) -> Counter:
        """Invalidations aggregated to the paper's four classes."""
        by_class: Counter = Counter()
        for reason, count in self.invalidations.items():
            by_class[reason.invalidation_class] += count
        return by_class

    @classmethod
    def merged(cls, parts: "list[CacheStats]") -> "CacheStats":
        """Fleet-wide aggregate of several caches' statistics.

        Counters and latency sums add; the derived ratios then reflect
        the whole deployment (used by placement experiments to report
        across per-user application-level caches).
        """
        return merged(parts) if parts else cls()

    RULES: typing.ClassVar[typing.Mapping] = {
        ("read", "hit"): _HIT,
        ("read", "revalidated"): _HIT,
        ("read", None): (("misses", 1), ("miss_latency_ms", ELAPSED)),
        ("verifier", "executed"): (
            ("verifier_executions", 1), ("verifier_cost_ms", "cost_ms"),
        ),
        ("verifier", "invalidated"): (("verifier_invalidations", 1),),
        ("verifier", "revalidated"): (("verifier_revalidations", 1),),
        ("quarantine", "added"): (("quarantined_verifiers", 1),),
        ("quarantine", "forced-miss"): (("quarantine_forced_misses", 1),),
        ("bus-loss", "detected"): (("dropped_notifier_detected", 1),),
        ("fetch", "failed"): (("fetch_failures", 1),),
        ("fetch", "retry"): (("retries", 1), ("retry_delay_ms", "delay_ms")),
        ("degradation", "stale-served"): (("stale_served_on_error", 1),),
        ("degradation", "stale-rejected"): (("stale_serve_rejected", 1),),
        ("admission", "filled"): (("bytes_filled", "bytes"),),
        ("admission", "uncacheable"): (("uncacheable_reads", 1),),
        ("eviction", "evicted"): (("evictions", 1),),
        ("invalidation", None): _count_invalidation,
        ("notifier", "delivered"): (("notifier_deliveries", 1),),
        ("forward", "read"): (("forwarded_reads", 1),),
        ("forward", "write"): (("forwarded_writes", 1),),
        ("prefetch", "requested"): (("prefetch_requests", 1),),
        ("prefetch", "filled"): (("prefetch_fills", 1),),
        ("prefetch", "hit"): (("prefetched_hits", 1),),
        ("write", "write-through"): (("writes_through", 1),),
        ("write", "write-back"): (("writes_backed", 1),),
        ("flush", "flushed"): (("flushes", 1),),
        ("flush", "failed"): (("flush_failures", 1),),
    }


@dataclass(slots=True)
class ConcurrencyStats:
    """Counters for the single-flight coalescing plane.

    ``flights_led`` counts reads that registered a flight (one fetch +
    one chain execution each); ``follows`` counts suspensions on
    another read's flight — each one is a provider fetch and a chain
    execution that did *not* happen.  ``promotions`` counts followers
    that woke from a failed leader and led their own fetch;
    ``bailed_contained`` counts misses that declined to coalesce (open
    breaker on the chain) and fetched for themselves.
    """

    flights_led: int = 0
    follows: int = 0
    promotions: int = 0
    bailed_contained: int = 0

    @property
    def fetches_saved(self) -> int:
        """Provider fetches avoided by coalescing (follows that never
        re-led: a promotion re-runs the fetch it was spared)."""
        return max(0, self.follows - self.promotions)
