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

The experiment ends with a reproducibility check: the ``outage``
scenario is run twice with the same seed and must produce byte-identical
fault-injection traces and identical cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import format_table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.policies import DegradationPolicy
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.retry import RetryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.runner import RunnerReport, TraceRunner
from repro.workload.trace import TraceSpec, generate_trace
from repro.workload.users import build_population

__all__ = ["SCENARIOS", "FaultRunResult", "run_scenario", "run_all", "main"]

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
    """One scenario's outcome: the report, cache, and the fault plan."""

    scenario: str
    report: RunnerReport
    cache: DocumentCache
    plan: FaultPlan

    def stats_snapshot(self) -> dict:
        """Comparable snapshot of the run's cache statistics."""
        snapshot = dict(vars(self.cache.stats))
        snapshot["invalidations"] = dict(snapshot["invalidations"])
        return snapshot


def run_scenario(name: str, seed: int = 7) -> FaultRunResult:
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
        plan=kernel.ctx.faults,
    )


def run_all(seed: int = 7) -> list[FaultRunResult]:
    """Every scenario, identical workload, fresh deployment each."""
    return [run_scenario(name, seed=seed) for name in SCENARIOS]


def reproducibility_check(seed: int = 7) -> bool:
    """Same seed twice → identical injection trace and identical stats."""
    first = run_scenario("combined", seed=seed)
    second = run_scenario("combined", seed=seed)
    return (
        first.plan.injection_trace() == second.plan.injection_trace()
        and first.stats_snapshot() == second.stats_snapshot()
        and first.report.availability == second.report.availability
    )


def main() -> None:
    """Print the A12 availability-under-faults table."""
    results = run_all()
    rows = []
    for result in results:
        stats = result.cache.stats
        bus = result.cache.bus.stats
        rows.append(
            (
                result.scenario,
                result.report.availability,
                result.report.hit_ratio,
                stats.retries,
                stats.degraded_serves,
                stats.stale_served_on_error,
                bus.lost,
                stats.dropped_notifier_detected,
                result.plan.stats.total,
            )
        )
    print(
        format_table(
            [
                "scenario", "availability", "hit ratio", "retries",
                "degraded", "stale-on-err", "bus lost", "lost-detected",
                "faults injected",
            ],
            rows,
            title=(
                "A12. Availability and degraded serves under injected "
                "faults (600-event Zipf trace, 3 users, 8 documents)"
            ),
        )
    )
    # Per-stage pipeline breakdown for the nastiest scenario: which
    # stages the reads traversed, how often each outcome occurred, and
    # what it cost in virtual time (from the instrumentation bus).
    combined = results[-1]
    print()
    print(
        combined.cache.stage_breakdown().render(
            title="combined scenario: pipeline stage breakdown"
        )
    )
    identical = reproducibility_check()
    print(
        "reproducibility: identical seed -> identical fault trace and "
        f"stats: {'OK' if identical else 'FAILED'}"
    )
    path = write_artifact(
        "a12",
        {
            "scenarios": [
                {
                    "scenario": result.scenario,
                    "availability": result.report.availability,
                    "hit_ratio": result.report.hit_ratio,
                    "retries": result.cache.stats.retries,
                    "degraded_serves": result.cache.stats.degraded_serves,
                    "faults_injected": result.plan.stats.total,
                }
                for result in results
            ],
            "reproducible": identical,
        },
        seed=7,
    )
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
