"""The shared simulation context threaded through the whole system.

Bundles the virtual clock, the latency model, the topology and the id
generator so constructors take one argument instead of four, and so a
test or benchmark can build an entire Placeless deployment around a
single deterministic context.

The context also carries the run's optional
:class:`~repro.faults.plan.FaultPlan`.  Constructors that do not pass
one pick up the process-wide default scenario (installed by the CLI's
``--faults`` flag), so fault injection can infiltrate experiments that
build their own contexts without any plumbing changes.

Like the fault plan, the containment guard
(:attr:`SimContext.containment`) lives here because it belongs to the
world, not to any one of the caches standing on it.

The clock is also the sole time source for the cache's instrumentation:
pipeline stages stamp their :class:`~repro.cache.instrumentation.StageEvent`
records from ``ctx.now_ms``, so stage-latency breakdowns are virtual
milliseconds and never perturb simulated time.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import RepositoryOfflineError
from repro.ids import IdGenerator
from repro.sim.clock import VirtualClock
from repro.sim.latency import LatencyModel
from repro.sim.topology import Topology

if typing.TYPE_CHECKING:  # pragma: no cover - the two world-scoped slots' types
    from repro.cache.containment import ContainmentGuard
    from repro.faults.plan import FaultPlan

__all__ = [
    "SimContext",
    "set_default_fault_scenario",
    "clear_default_fault_scenario",
]

#: Process-wide default scenario, consulted by every freshly constructed
#: :class:`SimContext`; lets the CLI's ``--faults`` flag infiltrate
#: experiments that build their own contexts.
_default_scenario: "Callable[[VirtualClock], FaultPlan] | None" = None


def set_default_fault_scenario(
    factory: "Callable[[VirtualClock], FaultPlan]",
) -> None:
    """Install a factory applied to every new :class:`SimContext`."""
    global _default_scenario
    _default_scenario = factory


def clear_default_fault_scenario() -> None:
    """Remove the process-wide default scenario (the normal state)."""
    global _default_scenario
    _default_scenario = None


@dataclass
class SimContext:
    """Deterministic simulation environment for one experiment run."""

    clock: VirtualClock = field(default_factory=VirtualClock)
    latency: LatencyModel = field(default_factory=LatencyModel)
    topology: Topology = field(default_factory=Topology)
    ids: IdGenerator = field(default_factory=IdGenerator)
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Fault-injection schedule for this run; ``None`` means a healthy
    #: world (unless a process-wide default scenario is installed).
    faults: "FaultPlan | None" = None
    #: The world's one containment guard, fencing the property code
    #: that runs on this context's kernel (stream wrappers, notifier
    #: callbacks) whichever cache a read came through.  Built by the
    #: first cache constructed with a containment policy and never
    #: replaced; ``None`` (the default) keeps those seams on their
    #: historical unguarded path.
    containment: "ContainmentGuard | None" = None
    #: Read plans compiled (:func:`repro.placeless.chain.read_plan`), and
    #: how many of those replaced a plan a chain mutation outdated —
    #: the doctor's ``read plan:`` line.
    read_plans_built: int = 0
    read_plans_rebuilt: int = 0

    def __post_init__(self) -> None:
        if self.faults is None and _default_scenario is not None:
            self.faults = _default_scenario(self.clock)

    @property
    def now_ms(self) -> float:
        """Current virtual time."""
        return self.clock.now_ms

    def charge_hop(self, hop: str, size_bytes: int = 0) -> float:
        """Charge one hop crossing to the clock; returns the cost.

        Raises :class:`~repro.errors.RepositoryOfflineError` when the
        fault plan has the link inside a scheduled outage window.
        """
        if self.faults is not None and self.faults.link_down(hop):
            raise RepositoryOfflineError(
                f"network link {hop!r} is down at t={self.clock.now_ms:.1f}ms"
            )
        cost = self.latency.hop_cost_ms(hop, size_bytes)
        self.clock.charge(cost)
        return cost

    def charge_repository(self, repository: str, size_bytes: int) -> float:
        """Charge one repository fetch to the clock; returns the cost."""
        cost = self.latency.repository_cost_ms(repository, size_bytes)
        self.clock.charge(cost)
        return cost

    def charge(self, cost_ms: float) -> float:
        """Charge an arbitrary simulated cost (property execution etc.)."""
        self.clock.charge(cost_ms)
        return cost_ms
