"""A12 — availability under injected faults, with graceful degradation.

The paper's consistency machinery presumes a misbehaving world (§3:
sources change out of band, repositories disappear, callbacks get lost)
but never measures what the cache *does* while the world misbehaves.
This experiment runs one Zipf trace against the same deployment under a
family of :class:`~repro.faults.plan.FaultPlan` scenarios and reports
availability (reads answered over reads attempted), retry volume, and
degraded-serve counts per scenario:

* ``baseline`` — healthy world, for reference;
* ``outage`` — a scheduled repository outage window in the middle of
  the trace; the cache retries with backoff, serves bounded stale bytes
  through the window, and recovers afterwards;
* ``lossy-bus`` — notifier deliveries dropped/delayed (the lost-callback
  problem); verifiers catch what the lost callbacks missed;
* ``flaky-fetch`` — intermittent ``ContentUnavailableError``; retries
  absorb most of it;
* ``combined`` — all of the above at once.

The experiment ends with a reproducibility check: the ``combined``
scenario is run twice with the same seed and must produce byte-identical
fault-injection traces and identical cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import table, write_artifact
from repro.cache.instrumentation import StageRecorder
from repro.cache.manager import DocumentCache
from repro.cache.policies import DegradationPolicy
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.retry import RetryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.runner import RunnerReport, TraceRunner
from repro.workload.trace import TraceSpec, generate_trace
from repro.workload.users import build_population

__all__ = [
    "SCENARIOS",
    "FaultRunResult",
    "ScenarioSummary",
    "run_scenario",
    "run_all",
    "main",
]

_SEED = 7

#: Virtual span of the trace is roughly n_events * mean think time; the
#: outage window sits squarely in the middle of it.
_N_EVENTS = 600
_THINK_MS = 50.0
_OUTAGE_START_MS = 8_000.0
_OUTAGE_DURATION_MS = 4_000.0


def _scenario_plan(name: str, clock, seed: int) -> FaultPlan:
    """Build the named scenario's fault plan on *clock*."""
    outage = OutageWindow(
        _OUTAGE_START_MS, _OUTAGE_START_MS + _OUTAGE_DURATION_MS
    )
    if name == "baseline":
        return FaultPlan(clock, seed=seed)
    if name == "outage":
        return FaultPlan(clock, seed=seed, outages=(outage,))
    if name == "lossy-bus":
        return FaultPlan(
            clock,
            seed=seed,
            notifier_loss_probability=0.15,
            notifier_delay_probability=0.15,
            notifier_delay_ms=200.0,
        )
    if name == "flaky-fetch":
        return FaultPlan(clock, seed=seed, fetch_failure_probability=0.10)
    if name == "combined":
        return FaultPlan(
            clock,
            seed=seed,
            outages=(outage,),
            fetch_failure_probability=0.05,
            notifier_loss_probability=0.10,
            notifier_delay_probability=0.10,
            notifier_delay_ms=200.0,
            verifier_failure_probability=0.02,
        )
    raise ValueError(f"unknown scenario: {name!r}")


SCENARIOS = ("baseline", "outage", "lossy-bus", "flaky-fetch", "combined")


@dataclass
class FaultRunResult:
    """One scenario's outcome: the report, cache, fault plan, and the
    per-stage breakdown its subscribed recorder saw."""

    scenario: str
    report: RunnerReport
    cache: DocumentCache
    plan: FaultPlan
    stages: StageRecorder

    def stats_snapshot(self) -> dict:
        """Comparable snapshot of the run's cache statistics."""
        snapshot = dict(vars(self.cache.stats))
        snapshot["invalidations"] = dict(snapshot["invalidations"])
        return snapshot

    def summary(self) -> "ScenarioSummary":
        """The scenario's reported numbers, off the live objects."""
        stats = self.cache.stats
        return ScenarioSummary(
            scenario=self.scenario,
            availability=self.report.availability,
            hit_ratio=self.report.hit_ratio,
            retries=stats.retries,
            stale_served_on_error=stats.stale_served_on_error,
            bus_lost=self.cache.bus.stats.lost,
            dropped_notifier_detected=stats.dropped_notifier_detected,
            faults_injected=self.plan.stats.total,
        )


@dataclass
class ScenarioSummary:
    """One row of the A12 table (a :class:`FaultRunResult` holds the
    live cache and plan; this is what gets printed and written)."""

    scenario: str
    availability: float
    hit_ratio: float
    retries: int
    stale_served_on_error: int
    bus_lost: int
    dropped_notifier_detected: int
    faults_injected: int


def run_scenario(name: str, seed: int = _SEED) -> FaultRunResult:
    """Run one fault scenario; returns its result bundle."""
    kernel = PlacelessKernel()
    kernel.ctx.faults = _scenario_plan(name, kernel.ctx.clock, seed)
    owner = kernel.create_user("owner")
    # TTLs short enough to expire *inside* the outage window, so the
    # stale-serve degradation path is actually exercised.
    corpus = build_corpus(
        kernel, owner,
        CorpusSpec(n_documents=8, ttl_ms=6_000.0, seed=seed),
    )
    population = build_population(
        kernel, corpus, n_users=3, personalized_fraction=0.3, seed=seed
    )
    cache = DocumentCache(
        kernel,
        # Room for the whole working set: outage-window misses then come
        # from TTL invalidations (which leave stale bytes to serve) rather
        # than capacity evictions (which leave nothing).
        capacity_bytes=2 * sum(d.size_bytes for d in corpus),
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_ms=100.0, multiplier=2.0,
            max_delay_ms=1_000.0,
        ),
        degradation_policy=DegradationPolicy(
            serve_stale_on_error=True,
            stale_serve_max_age_ms=60_000.0,
            verifier_quarantine_threshold=5,
        ),
        name=f"faults-{name}",
    )
    stages = StageRecorder()
    cache.instrumentation.subscribe(stages)
    runner = TraceRunner(
        kernel, corpus, population.references, caches=cache,
        writes_via_cache=False,
    )
    spec = TraceSpec(
        n_events=_N_EVENTS, n_documents=8, n_users=3,
        p_write=0.05, p_out_of_band=0.05,
        mean_think_time_ms=_THINK_MS,
        seed=seed,
    )
    report = runner.execute(generate_trace(spec))
    return FaultRunResult(
        scenario=name, report=report, cache=cache,
        plan=kernel.ctx.faults, stages=stages,
    )


def run_all(seed: int = _SEED) -> list[FaultRunResult]:
    """Every scenario, identical workload, fresh deployment each."""
    return [run_scenario(name, seed=seed) for name in SCENARIOS]


def reproducibility_check(seed: int = _SEED) -> bool:
    """Same seed twice → identical injection trace and identical stats."""
    first = run_scenario("combined", seed=seed)
    second = run_scenario("combined", seed=seed)
    return (
        first.plan.injection_trace() == second.plan.injection_trace()
        and first.stats_snapshot() == second.stats_snapshot()
        and first.report.availability == second.report.availability
    )


TITLE = (
    "A12. Availability and degraded serves under injected faults "
    "(600-event Zipf trace, 3 users, 8 documents)"
)

COLUMNS = (
    ("scenario", "scenario"),
    ("availability", "availability"),
    ("hit ratio", "hit_ratio"),
    ("retries", "retries"),
    ("stale-on-err", "stale_served_on_error"),
    ("bus lost", "bus_lost"),
    ("lost-detected", "dropped_notifier_detected"),
    ("faults injected", "faults_injected"),
)


def main(smoke: bool = False) -> None:
    """Print the A12 availability-under-faults table (one size)."""
    results = run_all()
    rows = [result.summary() for result in results]
    print(table(rows, COLUMNS, title=TITLE))
    # Per-stage pipeline breakdown for the nastiest scenario: which
    # stages the reads traversed, how often each outcome occurred, and
    # what it cost in virtual time (from the instrumentation bus).
    print()
    print(
        results[-1].stages.render(
            title="combined scenario: pipeline stage breakdown"
        )
    )
    identical = reproducibility_check()
    print(
        "reproducibility: identical seed -> identical fault trace and "
        f"stats: {'OK' if identical else 'FAILED'}"
    )
    write_artifact(
        "a12", {"scenarios": rows, "reproducible": identical}, seed=_SEED
    )

