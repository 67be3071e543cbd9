"""Simulation substrate: virtual time, latency accounting and topology.

The paper's evaluation (Table 1) reports wall-clock access times measured
on PARC's 1999 testbed.  We cannot reproduce that hardware, so every
latency-bearing action in this library (network hops between the
application, Placeless servers and repositories; repository fetches;
active-property execution) charges a deterministic cost to a
:class:`~repro.sim.clock.VirtualClock` through a
:class:`~repro.sim.latency.LatencyModel`.  Benchmarks then report virtual
milliseconds whose *relative* magnitudes follow the paper, alongside real
wall-clock numbers from ``perfbench/``.
"""

from repro.sim.clock import ScheduledCall, VirtualClock
from repro.sim.context import SimContext
from repro.sim.scheduler import (
    Flight,
    FlightTable,
    Suspension,
    drive,
    run_batch,
)
from repro.sim.latency import (
    HopCost,
    LatencyModel,
    LatencySample,
    RepositoryCost,
)
from repro.sim.topology import CachePlacement, Node, NodeKind, Topology

__all__ = [
    "SimContext",
    "VirtualClock",
    "ScheduledCall",
    "Suspension",
    "Flight",
    "FlightTable",
    "drive",
    "run_batch",
    "LatencyModel",
    "LatencySample",
    "HopCost",
    "RepositoryCost",
    "Topology",
    "Node",
    "NodeKind",
    "CachePlacement",
]
