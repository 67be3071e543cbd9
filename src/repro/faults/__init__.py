"""Fault injection: deterministic failure schedules for the simulated world.

The paper's consistency machinery exists because parts of the world
misbehave: sources change "outside of the control of the document
management system", repositories go offline, callbacks get lost.  This
package makes those failures first-class and *reproducible*:

* :class:`~repro.faults.plan.FaultPlan` — a seed-deterministic schedule
  of injected failures, driven entirely by the virtual clock (never wall
  time).  It hooks the seams the system already has: bit-provider
  fetches/stores, invalidation-bus deliveries, verifier executions and
  topology links.  Every injection is appended to an inspectable trace,
  so the same seed reproduces byte-identical failure schedules.
* :class:`~repro.faults.retry.RetryPolicy` — capped exponential backoff
  charged to the virtual clock, used by the cache manager's fetch and
  write-back flush paths.
* :mod:`~repro.faults.scenarios` — canned fault scenarios for benchmarks
  and the ``--faults`` CLI flag.
"""

from repro.faults.plan import (
    FaultPlan,
    FaultRecord,
    FaultStats,
    OutageWindow,
)
from repro.faults.retry import RetryPolicy
from repro.faults.scenarios import (
    NAMED_CHAOS_SCENARIOS,
    crash_chaos_scenario,
    diskchaos_chaos_scenario,
    misbehave_chaos_scenario,
    partition_chaos_scenario,
    standard_chaos_scenario,
)
from repro.sim.context import (
    clear_default_fault_scenario,
    set_default_fault_scenario,
)

__all__ = [
    "FaultPlan",
    "FaultRecord",
    "FaultStats",
    "OutageWindow",
    "RetryPolicy",
    "set_default_fault_scenario",
    "clear_default_fault_scenario",
    "standard_chaos_scenario",
    "partition_chaos_scenario",
    "crash_chaos_scenario",
    "misbehave_chaos_scenario",
    "diskchaos_chaos_scenario",
    "NAMED_CHAOS_SCENARIOS",
]
