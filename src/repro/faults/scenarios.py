"""Canned fault scenarios for benchmarks, tests and the CLI.

Each factory takes the run's virtual clock (plus scenario knobs) and
returns a ready :class:`~repro.faults.plan.FaultPlan`.  The CLI's
``--faults`` flag installs one of :data:`NAMED_CHAOS_SCENARIOS`
(:func:`standard_chaos_scenario` when no name is given) as the
process-wide default, so every experiment context picks it up; those
scenarios inject only *absorbable* faults (notifier loss/delay and
verifier flakiness — failures the cache machinery converts into
conservative invalidations — plus a blackout, a crash, a hostile disk
or a gray shard) so experiments not written for fault tolerance still
complete.  The raising fault classes (outage windows, fetch failures,
misbehaving properties) are exercised by the dedicated A12 and A14
benches, whose caches are configured to absorb them.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, OutageWindow
from repro.sim.clock import VirtualClock

__all__ = [
    "standard_chaos_scenario",
    "partition_chaos_scenario",
    "crash_chaos_scenario",
    "misbehave_chaos_scenario",
    "diskchaos_chaos_scenario",
    "grayshard_chaos_scenario",
    "NAMED_CHAOS_SCENARIOS",
]


def standard_chaos_scenario(
    clock: "VirtualClock",
    seed: int = 0,
) -> FaultPlan:
    """The ``--faults`` default: mild, absorbable background chaos.

    Notifier loss + delay plus occasional verifier failures.  No raising
    faults, so any experiment — fault-aware or not — runs to completion,
    just with consistency machinery under stress.
    """
    return FaultPlan(
        clock,
        seed=seed,
        notifier_loss_probability=0.05,
        notifier_delay_probability=0.10,
        notifier_delay_ms=100.0,
        verifier_failure_probability=0.02,
    )


def partition_chaos_scenario(
    clock: "VirtualClock",
    seed: int = 0,
) -> FaultPlan:
    """``--faults partition``: standard chaos plus a bus blackout.

    The partition window sits where mid-trace notifications land for the
    default experiment shapes, so lost invalidations (and lapsed leases,
    for recovery-enabled caches) are actually exercised.
    """
    return FaultPlan(
        clock,
        seed=seed,
        notifier_loss_probability=0.05,
        notifier_delay_probability=0.10,
        notifier_delay_ms=100.0,
        verifier_failure_probability=0.02,
        bus_outages=(OutageWindow(5_000.0, 9_000.0),),
    )


def crash_chaos_scenario(
    clock: "VirtualClock",
    seed: int = 0,
) -> FaultPlan:
    """``--faults crash``: standard chaos plus a mid-run cache crash."""
    return FaultPlan(
        clock,
        seed=seed,
        notifier_loss_probability=0.05,
        notifier_delay_probability=0.10,
        notifier_delay_ms=100.0,
        verifier_failure_probability=0.02,
        cache_crashes=(6_000.0,),
    )


def misbehave_chaos_scenario(
    clock: "VirtualClock",
    seed: int = 0,
    property_failure_probability: float = 0.10,
) -> FaultPlan:
    """Standard chaos plus misbehaving properties.

    10 % of property stream-wrapper invocations misbehave (raise /
    runaway / corrupt, drawn uniformly) — the hazard the containment
    layer's breakers, budgets and firewalls exist to absorb.  Unlike the
    named scenarios this one *does* raise out of unprepared
    deployments, so it is not one of :data:`NAMED_CHAOS_SCENARIOS`:
    run it against a cache with a containment policy (or a runner that
    counts property failures against availability).
    """
    return FaultPlan(
        clock,
        seed=seed,
        notifier_loss_probability=0.05,
        notifier_delay_probability=0.10,
        notifier_delay_ms=100.0,
        verifier_failure_probability=0.02,
        property_failure_probability=property_failure_probability,
    )


def diskchaos_chaos_scenario(
    clock: "VirtualClock",
    seed: int = 0,
) -> FaultPlan:
    """``--faults diskchaos``: standard chaos plus a hostile disk.

    Durable-tier writes fail, fsyncs lie, records corrupt on disk and
    I/O stalls — on top of a mid-run crash/restart, so recovery replays
    a journal that actually took the damage.  A cache without a
    ``storage_policy`` never touches the disk seams (zero-probability
    draws consume no RNG at the other seams, and the disk stream is
    separate), so this scenario is safe to point at any experiment;
    storage-enabled caches must absorb it via CRC drops, the storage
    breaker and L1-only fallback rather than erroring reads.
    """
    return FaultPlan(
        clock,
        seed=seed,
        notifier_loss_probability=0.05,
        notifier_delay_probability=0.10,
        notifier_delay_ms=100.0,
        verifier_failure_probability=0.02,
        cache_crashes=(6_000.0,),
        disk_write_fail_probability=0.05,
        disk_fsync_lost_probability=0.10,
        disk_corrupt_probability=0.06,
        disk_slow_io_probability=0.10,
        disk_slow_io_ms=5.0,
    )


def grayshard_chaos_scenario(
    clock: "VirtualClock",
    seed: int = 0,
    target: str | None = "cluster-0",
    start_ms: float = 2_000.0,
    duration_ms: float = 20_000.0,
    slow_ms: float = 150.0,
) -> FaultPlan:
    """``--faults grayshard``: standard chaos plus one gray-failing shard.

    During the window, every fetch through the targeted shard (by
    default ``cluster-0``, the first shard of a default-named
    ``CacheCluster``) burns ``slow_ms`` extra virtual milliseconds.
    The shard stays up and correct — no error-based breaker ever
    trips — which is exactly the failure mode the cluster's hedged
    reads and EWMA health tracking exist to absorb.  Non-cluster
    experiments name their cache ``"cache"``, which never matches the
    target, so this scenario is safe to point anywhere.
    """
    return FaultPlan(
        clock,
        seed=seed,
        notifier_loss_probability=0.05,
        notifier_delay_probability=0.10,
        notifier_delay_ms=100.0,
        verifier_failure_probability=0.02,
        gray_windows=(
            OutageWindow(start_ms, start_ms + duration_ms, target),
        ),
        gray_slow_ms=slow_ms,
    )


#: Scenario names accepted by the CLI's ``--faults [NAME]`` flag: each
#: must let every experiment, fault-aware or not, run to completion.
NAMED_CHAOS_SCENARIOS = {
    "standard": standard_chaos_scenario,
    "partition": partition_chaos_scenario,
    "crash": crash_chaos_scenario,
    "diskchaos": diskchaos_chaos_scenario,
    "grayshard": grayshard_chaos_scenario,
}
