"""A14 — containment: availability under misbehaving active-property code.

The paper's caches serve content *produced by running arbitrary property
code* — stream transformers on every read path (§2), verifiers on every
hit (§3).  A single property that raises, runs away or corrupts its
output therefore poisons every access to its document.  This experiment
injects exactly that (the ``misbehave`` fault family: seed-deterministic
raise / runaway-cost / corrupt-output at the stream-wrapper seam) into a
small deployment and measures what the containment layer (per-(document,
code-site) circuit breakers, execution budgets, exception firewalls with
per-role fallbacks) buys:

* **access availability vs. misbehaving-property rate** — a writer keeps
  updating each document (forcing the reader's accesses to miss and
  re-run the wrapper chain) while the reader polls through the cache.
  Uncontained, every injected raise or mid-stream corruption fails the
  access outright; contained, raises are converted into the per-role
  fallback (skip the optional audit property / force-miss past the
  required translator), runaway cost is capped by the execution budget,
  and only the occasional *first* corruption at a site escapes before
  its breaker trips.
* **p99 access latency** — the runaway mode charges an extra
  ``property_runaway_cost_ms`` per invocation; the contained run's
  budget aborts those invocations at the cap, so the latency tail
  collapses.
* **breaker recovery** — after the faults clear, one probation window
  plus ``half_open_successes`` clean probes must close every tripped
  breaker and restore undegraded service.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import fmt, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultContainmentPolicy
from repro.errors import ContainmentError, PropertyError, StreamError
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext

__all__ = [
    "FAILURE_THRESHOLD",
    "PROBATION_DELAY_MS",
    "HALF_OPEN_SUCCESSES",
    "BUDGET_MS",
    "AvailabilityResult",
    "RecoveryResult",
    "run_availability",
    "run_recovery",
    "main",
]

#: Breaker tuning used by every contained run in this experiment.
FAILURE_THRESHOLD = 1
PROBATION_DELAY_MS = 2_000.0
HALF_OPEN_SUCCESSES = 2
#: Per-invocation execution budget (virtual ms); the injected runaway
#: cost (25 ms) busts it, the translator's honest 2.5 ms does not.
BUDGET_MS = 5.0
#: Idle gap between workload rounds (virtual ms).
_THINK_MS = 50.0

#: Exceptions that count as a failed access (the availability metric).
_ACCESS_FAILURES = (PropertyError, StreamError, ContainmentError)


def _containment_policy() -> DefaultContainmentPolicy:
    return DefaultContainmentPolicy(
        failure_threshold=FAILURE_THRESHOLD,
        probation_delay_ms=PROBATION_DELAY_MS,
        half_open_successes=HALF_OPEN_SUCCESSES,
        max_cost_ms=BUDGET_MS,
    )


def _deployment(seed: int, rate: float, contained: bool, n_documents: int):
    """Reader + writer over *n_documents*, two wrapped properties each.

    Every document carries one *optional* property (the read-audit
    trail: observes the read path, transforms nothing) and one
    *required* transformer (translation), so both fallback roles are
    exercised at the wrapper seam.
    """
    ctx = SimContext()
    ctx.faults = FaultPlan(
        ctx.clock, seed=seed, property_failure_probability=rate
    )
    kernel = PlacelessKernel(ctx)
    reader = kernel.create_user("reader")
    writer = kernel.create_user("writer")
    pairs = []
    for i in range(n_documents):
        provider = MemoryProvider(ctx, b"hello world")
        reader_ref = kernel.import_document(reader, provider, f"doc-{i}")
        reader_ref.base.attach(
            ReadAuditTrailProperty(name=f"audit-{i}"), acting_user=reader
        )
        reader_ref.base.attach(
            TranslationProperty(name=f"translate-{i}"), acting_user=reader
        )
        writer_ref = kernel.space(writer).add_reference(
            reader_ref.base, f"doc-{i}-w"
        )
        pairs.append((reader_ref, writer_ref))
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 20,
        containment_policy=_containment_policy() if contained else None,
        name=f"a14-{'contained' if contained else 'bare'}"
        f"-rate{int(rate * 100)}",
    )
    return kernel, cache, pairs


def _run_rounds(kernel, cache, pairs, rounds: int, round_base: int = 0):
    """Write-then-read every document per round; returns accounting.

    Each write (by the other user) invalidates the reader's entry, so
    the following read misses and re-runs the wrapper chain — the seam
    the ``misbehave`` faults target.
    """
    clock = kernel.ctx.clock
    latencies: list[float] = []
    failures = 0
    degraded = 0
    for round_no in range(round_base, round_base + rounds):
        for i, (reader_ref, writer_ref) in enumerate(pairs):
            payload = f"hello world round {round_no} doc {i}".encode()
            kernel.write(writer_ref, payload)
            started = clock.now_ms
            try:
                outcome = cache.read(reader_ref)
            except _ACCESS_FAILURES:
                failures += 1
            else:
                if outcome.degraded:
                    degraded += 1
            latencies.append(clock.now_ms - started)
        clock.advance(_THINK_MS)
    return latencies, failures, degraded


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))] if ordered else float("nan")


@dataclass
class AvailabilityResult:
    """One (misbehaving-rate, containment) cell of the A14 sweep."""

    misbehave_rate: float
    contained: bool
    reads: int
    failures: int
    availability: float
    degraded: int
    p99_latency_ms: float
    trips: int
    contained_raises: int
    budget_overruns: int
    escapes: int


def run_availability(
    rate: float,
    contained: bool,
    seed: int = 11,
    rounds: int = 30,
    n_documents: int = 8,
) -> AvailabilityResult:
    """Sweep one cell: write/read rounds under injected property faults."""
    kernel, cache, pairs = _deployment(seed, rate, contained, n_documents)
    latencies, failures, degraded = _run_rounds(kernel, cache, pairs, rounds)
    stats = cache.containment_stats
    reads = len(latencies)
    return AvailabilityResult(
        misbehave_rate=rate,
        contained=contained,
        reads=reads,
        failures=failures,
        availability=(reads - failures) / reads if reads else float("nan"),
        degraded=degraded,
        p99_latency_ms=_p99(latencies),
        trips=stats.trips if stats else 0,
        contained_raises=stats.failures_contained if stats else 0,
        budget_overruns=stats.budget_overruns if stats else 0,
        escapes=stats.escapes if stats else 0,
    )


@dataclass
class RecoveryResult:
    """Breaker recovery once the property faults clear."""

    rate: float
    open_after_faults: int
    probation_delay_ms: float
    recovery_rounds: int
    open_after_recovery: int
    closes: int
    recovered_degraded_reads: int
    recovered_failures: int


def run_recovery(
    rate: float = 0.10,
    seed: int = 11,
    rounds: int = 30,
    n_documents: int = 8,
) -> RecoveryResult:
    """Faulted phase, then clear the faults and probe the breakers.

    The recovery bound under test: one probation window plus
    ``HALF_OPEN_SUCCESSES`` clean accesses per site closes every
    breaker and restores undegraded (non-fallback) service.
    """
    kernel, cache, pairs = _deployment(
        seed, rate, contained=True, n_documents=n_documents
    )
    latencies, failures, degraded = _run_rounds(kernel, cache, pairs, rounds)
    guard = cache.containment
    assert guard is not None
    open_after_faults = sum(len(k) for k in guard.open_sites().values())
    closes_before = guard.stats.closes
    # Faults clear; wait out one probation window, then run the
    # half-open probes (each clean read is one probe success per site).
    kernel.ctx.faults.property_failure_probability = 0.0
    kernel.ctx.clock.advance(PROBATION_DELAY_MS)
    recovery_rounds = HALF_OPEN_SUCCESSES
    _, rec_failures, _ = _run_rounds(
        kernel, cache, pairs, recovery_rounds, round_base=rounds
    )
    # One more round past the close shows service fully restored.
    _, post_failures, post_degraded = _run_rounds(
        kernel, cache, pairs, 1, round_base=rounds + recovery_rounds
    )
    return RecoveryResult(
        rate=rate,
        open_after_faults=open_after_faults,
        probation_delay_ms=PROBATION_DELAY_MS,
        recovery_rounds=recovery_rounds,
        open_after_recovery=sum(
            len(k) for k in guard.open_sites().values()
        ),
        closes=guard.stats.closes - closes_before,
        recovered_degraded_reads=post_degraded,
        recovered_failures=rec_failures + post_failures,
    )


AVAILABILITY_COLUMNS = (
    ("misbehave rate", fmt("misbehave_rate", ".0%")),
    ("contained", "contained"),
    ("reads", "reads"),
    ("failed", "failures"),
    ("availability", fmt("availability", ".1%")),
    ("degraded", "degraded"),
    ("p99 ms", fmt("p99_latency_ms", ".1f")),
    ("trips", "trips"),
    ("contained", "contained_raises"),
    ("budget kills", "budget_overruns"),
    ("escapes", "escapes"),
)

RECOVERY_COLUMNS = (
    ("rate", fmt("rate", ".0%")),
    ("open after faults", "open_after_faults"),
    ("probation ms", fmt("probation_delay_ms", ".0f")),
    ("probe rounds", "recovery_rounds"),
    ("open after", "open_after_recovery"),
    ("closes", "closes"),
    ("degraded after", "recovered_degraded_reads"),
    ("failures after", "recovered_failures"),
)


def main(smoke: bool = False) -> None:
    """Print the A14 containment tables (one size)."""
    cells = {
        (rate, contained): run_availability(rate, contained)
        for rate in (0.0, 0.10, 0.25)
        for contained in (False, True)
    }
    print(
        table(
            cells.values(),
            AVAILABILITY_COLUMNS,
            title=(
                "A14a. Access availability and p99 latency vs "
                "misbehaving-property rate (8 docs x 30 write+read "
                "rounds; breaker threshold "
                f"{FAILURE_THRESHOLD}, probation "
                f"{PROBATION_DELAY_MS:.0f}ms, budget {BUDGET_MS:.0f}ms)"
            ),
        )
    )
    baseline = cells[0.0, False].availability
    headline = cells[0.10, True].availability
    print(
        f"\nheadline: contained availability at 10% misbehave rate "
        f"is {headline:.1%} vs fault-free baseline {baseline:.1%} "
        f"(delta {baseline - headline:+.1%})"
    )
    print()
    recovery = run_recovery()
    print(
        table(
            [recovery],
            RECOVERY_COLUMNS,
            title=(
                "A14b. Breaker recovery after the faults clear (one "
                "probation window + "
                f"{HALF_OPEN_SUCCESSES} clean probes per site closes "
                "every circuit)"
            ),
        )
    )
    write_artifact(
        "a14",
        {"availability": list(cells.values()), "recovery": recovery},
    )

