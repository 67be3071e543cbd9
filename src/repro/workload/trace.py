"""Access traces: Zipf-popularity reads interleaved with mutations.

Web and document workloads of the period follow Zipf-like popularity
(the Greedy-Dual-Size paper's evaluation does too), so reads draw
document indices from a Zipf distribution.  Mutation events are mixed in
at configurable rates, one per consistency class, so a single trace can
drive the notifier/verifier and invalidation experiments:

* ``WRITE`` — in-band write through Placeless (class 1, snooped);
* ``OUT_OF_BAND_UPDATE`` — repository mutated directly (class 1, only a
  verifier catches it);
* ``PROPERTY_CHANGE`` — attach/detach/upgrade of a transforming property
  (class 2);
* ``PROPERTY_REORDER`` — permute a chain (class 3);
* ``EXTERNAL_CHANGE`` — perturb external data a property depends on
  (class 4).
"""

from __future__ import annotations

import bisect
import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import WorkloadError

__all__ = [
    "zipf_indices",
    "TraceEventKind",
    "TraceEvent",
    "TraceSpec",
    "generate_trace",
]


def zipf_indices(
    n_items: int, n_samples: int, alpha: float = 0.8, seed: int = 0
) -> list[int]:
    """Sample *n_samples* indices in ``[0, n_items)`` with Zipf(alpha).

    Index 0 is the most popular.  Uses inverse-CDF sampling over the
    finite harmonic weights, so any alpha ≥ 0 works (alpha = 0 is
    uniform).
    """
    if n_items <= 0:
        raise WorkloadError(f"n_items must be positive: {n_items}")
    if alpha < 0:
        raise WorkloadError(f"alpha must be non-negative: {alpha}")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n_items)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    return [
        bisect.bisect_left(cumulative, rng.random() * total)
        for _ in range(n_samples)
    ]


class TraceEventKind(enum.Enum):
    """What one trace step does."""

    READ = "read"
    WRITE = "write"
    OUT_OF_BAND_UPDATE = "out-of-band-update"
    PROPERTY_CHANGE = "property-change"
    PROPERTY_REORDER = "property-reorder"
    EXTERNAL_CHANGE = "external-change"


@dataclass
class TraceEvent:
    """One step of a trace."""

    kind: TraceEventKind
    document_index: int
    user_index: int
    #: Virtual milliseconds to advance before executing this event
    #: (inter-arrival gap).
    think_time_ms: float = 0.0
    #: Step-specific detail (e.g. new content seed).
    detail: int = 0


@dataclass
class TraceSpec:
    """Configuration for :func:`generate_trace`."""

    n_events: int = 1000
    n_documents: int = 100
    n_users: int = 1
    zipf_alpha: float = 0.8
    #: Probabilities per event kind; the remainder goes to READ.
    p_write: float = 0.0
    p_out_of_band: float = 0.0
    p_property_change: float = 0.0
    p_property_reorder: float = 0.0
    p_external_change: float = 0.0
    #: Mean think time between events (exponential); 0 disables gaps.
    mean_think_time_ms: float = 0.0
    seed: int = 0

    def mutation_probability(self) -> float:
        """Total probability of non-read events."""
        return (
            self.p_write
            + self.p_out_of_band
            + self.p_property_change
            + self.p_property_reorder
            + self.p_external_change
        )


def generate_trace(spec: TraceSpec) -> Iterator[TraceEvent]:
    """Yield *spec.n_events* trace events deterministically.

    Every event draws its own document (Zipf) and user (uniform), so
    mutations hit popular documents more often — the worst case for
    cache consistency, and the realistic one.
    """
    if spec.mutation_probability() > 1.0 + 1e-9:
        raise WorkloadError("event-kind probabilities exceed 1")
    rng = random.Random(spec.seed)
    documents = zipf_indices(
        spec.n_documents, spec.n_events, spec.zipf_alpha, seed=spec.seed + 1
    )
    kinds_and_probs = [
        (TraceEventKind.WRITE, spec.p_write),
        (TraceEventKind.OUT_OF_BAND_UPDATE, spec.p_out_of_band),
        (TraceEventKind.PROPERTY_CHANGE, spec.p_property_change),
        (TraceEventKind.PROPERTY_REORDER, spec.p_property_reorder),
        (TraceEventKind.EXTERNAL_CHANGE, spec.p_external_change),
    ]
    for step in range(spec.n_events):
        roll = rng.random()
        kind = TraceEventKind.READ
        for candidate, probability in kinds_and_probs:
            if roll < probability:
                kind = candidate
                break
            roll -= probability
        think = (
            rng.expovariate(1.0 / spec.mean_think_time_ms)
            if spec.mean_think_time_ms > 0
            else 0.0
        )
        yield TraceEvent(
            kind=kind,
            document_index=documents[step],
            user_index=rng.randrange(spec.n_users),
            think_time_ms=think,
            detail=rng.randrange(1 << 30),
        )
