"""Overload robustness: deadlines, admission control, hedging, health.

The paper's QoS property states targets like "access time < .25
seconds" (§3); A12–A14 made individual failures survivable, but under
the ROADMAP's "millions of users" north star the dominant failure mode
is *overload* — every component healthy, yet queues growing without
bound and p99 exploding.  This package turns the QoS promise into
enforcement machinery, all off by default behind
:class:`~repro.overload.gate.OverloadPolicy`:

* :class:`DeadlineBudget` (:mod:`repro.overload.budget`) — an absolute
  virtual-time deadline carried in the read context and consulted at
  every expensive seam; expiry routes through the existing A12
  degradation ladder (bounded serve-stale) before surfacing as
  :class:`~repro.errors.DeadlineExceededError`.
* :class:`AdmissionController` (:mod:`repro.overload.admission`) — a
  token-bucket + queue-depth gate with CoDel-style sojourn shedding,
  sacrificing the lowest :func:`priority_class` first so goodput stays
  flat past saturation instead of metastably collapsing.
* :class:`HealthTracker` (:mod:`repro.overload.health`) — per-shard
  EWMA latency and error counters, told by each shard's read terminals,
  marking gray-failing shards for hedging and hard-failing shards for
  placement failover.
* :func:`hedged_iterate` (:mod:`repro.overload.hedge`) — the hedged
  cross-shard read combinator: after a p95-based delay a backup read
  runs on the replica shard and the loser is cancelled.
* :class:`OverloadGate` (:mod:`repro.overload.gate`) — the per-cache
  facade the pipeline consults: builds budgets, admits or sheds reads,
  and tracks the decisions.
"""

from __future__ import annotations

from repro.overload.admission import (
    PRIORITY_BULK,
    PRIORITY_CRITICAL,
    PRIORITY_QOS,
    AdmissionController,
    AdmissionDecision,
    priority_class,
)
from repro.overload.budget import DeadlineBudget
from repro.overload.gate import OverloadGate
from repro.overload.health import HealthTracker, ShardHealth
from repro.overload.hedge import hedged_iterate

__all__ = [
    "DeadlineBudget",
    "AdmissionController",
    "AdmissionDecision",
    "priority_class",
    "PRIORITY_CRITICAL",
    "PRIORITY_QOS",
    "PRIORITY_BULK",
    "HealthTracker",
    "ShardHealth",
    "hedged_iterate",
    "OverloadGate",
]
