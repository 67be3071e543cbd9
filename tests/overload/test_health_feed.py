"""The cluster's health tracker learns exactly what the read events say.

A shard tells its :class:`~repro.overload.health.HealthTracker` about
a read where the read ends.  The oracle here is the rule the tracker
used to apply to a shard's instrumentation events: a terminal ``read``
event is one observed read, fetched unless its outcome was answered
locally, and a ``fetch failed`` event is one error.  A reference
tracker fed by that rule, subscribed as a catch-all to every shard,
must agree with ``cluster.health`` after every read of a seeded run
that reaches every kind of terminal: hits, fetched misses, memo
serves, L2 promotions, stale bytes served on error, and failed reads.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.cache.policies import (
    DegradationPolicy,
    MemoPolicy,
    OverloadPolicy,
    StoragePolicy,
)
from repro.cluster import CacheCluster, ClusterPolicy
from repro.errors import PlacelessError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.overload.health import HealthTracker
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

_SEED = 29
_SHARDS = 3
_ROUNDS = 40
#: Repository outage: every fetch in the window raises.
_OUTAGE = OutageWindow(9_000.0, 13_000.0)
#: Gray window on the first shard: its fetches run 150 ms slow.
_GRAY = OutageWindow(1_000.0, 30_000.0, "cluster-0")

#: Terminal read outcomes answered without a provider fetch.
_LOCAL = frozenset({"hit", "revalidated", "miss-memoized", "miss-promoted"})


class EventFedTracker(HealthTracker):
    """A tracker fed from a shard's stage events, as a bus subscriber."""

    def __init__(self, min_samples: int) -> None:
        super().__init__(min_samples=min_samples)
        self.outcomes: Counter = Counter()

    def on_event(self, name: str, event) -> None:
        if event.stage == "read":
            self.outcomes[event.outcome] += 1
            self.observe_read(
                name, event.elapsed_ms, fetched=event.outcome not in _LOCAL
            )
        elif event.stage == "fetch" and event.outcome == "failed":
            self.outcomes["fetch-failed"] += 1
            self.observe_error(name)


def _state(tracker: HealthTracker):
    return tracker.snapshot(), sorted(tracker.unhealthy)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Per read, ``(cluster.health, oracle)`` states; then the oracle."""
    kernel = PlacelessKernel()
    ctx = kernel.ctx
    ctx.faults = FaultPlan(
        ctx.clock, seed=_SEED, outages=(_OUTAGE,),
        gray_windows=(_GRAY,), gray_slow_ms=150.0,
    )
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner, CorpusSpec(n_documents=10, ttl_ms=3_000.0, seed=_SEED)
    )
    population = build_population(
        kernel, corpus, 3, personalized_fraction=0.0, seed=_SEED
    )
    cluster = CacheCluster(
        kernel,
        _SHARDS,
        # Room for a few documents per shard: evictions demote to L2.
        capacity_bytes=sum(d.size_bytes for d in corpus) // 3,
        cluster_policy=ClusterPolicy(),
        memo_policy=MemoPolicy(),
        overload_policy=OverloadPolicy(health_min_samples=4),
        shard_kwargs=dict(
            storage_policy=StoragePolicy(
                directory=str(tmp_path_factory.mktemp("l2"))
            ),
            degradation_policy=DegradationPolicy(serve_stale_on_error=True),
        ),
    )
    oracle = EventFedTracker(min_samples=4)
    for name, shard in cluster.shards.items():
        oracle.track(name)
        shard.instrumentation.subscribe(
            functools.partial(oracle.on_event, name)
        )
    references = [
        population.reference(user, document)
        for document in range(len(corpus))
        for user in range(3)
    ]
    states = []
    for _ in range(_ROUNDS):
        for reference in references:
            ctx.clock.charge(40.0)
            try:
                cluster.read(reference)
            except PlacelessError:
                pass
            states.append((_state(cluster.health), _state(oracle)))
    return states, oracle, cluster.overload_stats


def test_the_run_reaches_every_kind_of_read_terminal(run):
    states, oracle, overload = run
    for outcome in (
        "hit", "miss", "miss-memoized", "miss-promoted", "stale-on-error",
        "fetch-failed",
    ):
        assert oracle.outcomes[outcome] > 0, (outcome, oracle.outcomes)
    assert overload.failovers > 0 and overload.recoveries > 0
    assert any(
        row["state"] == "gray"
        for (table, _), _ in states
        for row in table.values()
    )


def test_the_tracker_matches_the_event_fed_oracle_after_every_read(run):
    states, _, _ = run
    for index, (told, heard) in enumerate(states):
        assert told == heard, f"diverged at read {index}"
