"""A10: the same invalidation policy placed in a notifier vs. a verifier.

§3: "invalidation policies could either be placed in a notifier or a
verifier.  For example, tracking external information that an active
property depends on could be handled by a notifier installed by that
property or a verifier returned by the property to the cache."

One document's content is transformed by a property that depends on an
external value (think ``preferredLanguage`` or a database row).  The
value changes at random times; readers poll the document.  The identical
"stale once the value changed" policy is deployed three ways:

* **verifier** — every hit samples the external source: zero staleness,
  hit latency pays the sampling cost on every access;
* **notifier (fast poll)** — the property polls server-side every 500 ms:
  cheap hits, staleness bounded by 500 ms, steady polling load;
* **notifier (slow poll)** — polling every 5 s: less load, more staleness.

Reported: stale reads actually served (the transform stamps the value
into the content, so staleness is observable), mean hit latency, and the
sampling/polling load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.harness import table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.notifiers import InvalidationBus
from repro.placeless.kernel import PlacelessKernel
from repro.properties.external import ExternalDependencyProperty
from repro.providers.memory import MemoryProvider

__all__ = ["ExternalPlacementResult", "run_external_placement", "main"]

_SEED = 37


@dataclass
class ExternalPlacementResult:
    """Metrics of one placement."""

    placement: str
    reads: int
    stale_reads: int
    stale_ratio: float
    mean_hit_latency_ms: float
    samples_taken: int
    invalidations_pushed: int


class _ExternalValue:
    """The external source: changes at seeded random instants."""

    def __init__(self, clock, mean_change_interval_ms: float, seed: int):
        self.clock = clock
        self.rng = random.Random(seed)
        self.mean_change_interval_ms = mean_change_interval_ms
        self.value = 0
        self._next_change = self._draw()

    def _draw(self) -> float:
        return self.clock.now_ms + self.rng.expovariate(
            1.0 / self.mean_change_interval_ms
        )

    def current(self) -> int:
        while self.clock.now_ms >= self._next_change:
            self.value += 1
            self._next_change = self._draw()
        return self.value


def _run(placement: str, n_reads: int, read_gap_ms: float,
         change_interval_ms: float, poll_period_ms: float,
         seed: int) -> ExternalPlacementResult:
    kernel = PlacelessKernel()
    user = kernel.create_user("reader")
    provider = MemoryProvider(kernel.ctx, b"rendered document body")
    reference = kernel.import_document(user, provider, "doc")
    bus = InvalidationBus(kernel.ctx)
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, bus=bus,
        name=f"a10-{placement}",
    )
    external = _ExternalValue(kernel.ctx.clock, change_interval_ms, seed)

    if placement == "verifier":
        prop = ExternalDependencyProperty(external.current, mode="verifier")
    else:
        prop = ExternalDependencyProperty(
            external.current,
            mode="notifier",
            timers=kernel.timers,
            bus=bus,
            cache_id=cache.cache_id,
            poll_period_ms=poll_period_ms,
        )
    reference.attach(prop)

    stale_reads = 0
    for _ in range(n_reads):
        kernel.ctx.clock.advance(read_gap_ms)
        outcome = cache.read(reference)
        expected = f"[external={external.current()}]".encode()
        if expected not in outcome.content:
            stale_reads += 1

    return ExternalPlacementResult(
        placement=placement,
        reads=n_reads,
        stale_reads=stale_reads,
        stale_ratio=stale_reads / n_reads,
        mean_hit_latency_ms=cache.stats.mean_hit_latency_ms,
        samples_taken=prop.polls,
        invalidations_pushed=prop.invalidations_pushed,
    )


def run_external_placement(
    n_reads: int = 600,
    read_gap_ms: float = 120.0,
    change_interval_ms: float = 2_000.0,
    fast_poll_ms: float = 500.0,
    slow_poll_ms: float = 5_000.0,
    seed: int = _SEED,
) -> list[ExternalPlacementResult]:
    """Run the three placements over identical external-change timelines."""
    return [
        _run(placement, n_reads, read_gap_ms, change_interval_ms,
             poll_period_ms, seed)
        for placement, poll_period_ms in (
            ("verifier", fast_poll_ms),
            ("notifier-fast", fast_poll_ms),
            ("notifier-slow", slow_poll_ms),
        )
    ]


TITLE = (
    "A10. The same external-dependency policy as a verifier vs. a "
    "(fast/slow polling) notifier."
)

COLUMNS = (
    ("placement", "placement"),
    ("reads", "reads"),
    ("stale reads", "stale_reads"),
    ("staleness", "stale_ratio"),
    ("hit latency (ms)", "mean_hit_latency_ms"),
    ("samples", "samples_taken"),
    ("invalidations pushed", "invalidations_pushed"),
)


def main(smoke: bool = False) -> None:
    """Print the A10 table and write ``BENCH_A10.json`` (one size)."""
    rows = run_external_placement()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a10", {"placements": rows}, seed=_SEED)

