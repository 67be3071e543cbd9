"""The gates a verified hit skips while they cannot act still act.

A hit asks the verifier breakers only once one exists, admission
control only when the cache sheds, and the failover walk only while a
shard is failed over or its primary is unhealthy.  Each test here makes
the skipped gate able to act and checks that it does: an open verifier
breaker forces a miss, a breaker past probation admits its probe and
closes, a shedding gate counts every hit and still sheds, and a primary
that turns unhealthy mid-run fails over on its next read and recovers.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import ContainmentPolicy, OverloadPolicy
from repro.cluster import CacheCluster
from repro.errors import OverloadShedError
from repro.overload import admission
from repro.overload.health import RECOVERY_SUCCESSES, UNHEALTHY_ERROR_THRESHOLD
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus


def _corpus(kernel: PlacelessKernel, n_documents: int = 8):
    owner = kernel.create_user("owner")
    return build_corpus(
        kernel, owner,
        CorpusSpec(n_documents=n_documents, ttl_ms=3_600_000.0, seed=13),
    )


def _contained_hit(policy: ContainmentPolicy):
    """A contained cache holding one verified entry, and a recorder of
    every stage event it emits from here on."""
    kernel = PlacelessKernel()
    reference = _corpus(kernel)[0].reference
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 28, containment_policy=policy
    )
    assert cache.read(reference).disposition == "miss"
    entry = cache.entry_for(reference)
    assert entry.verifiers
    events: list = []
    cache.instrumentation.subscribe(events.append)
    return cache, reference, entry, events


def _trip(cache: DocumentCache, entry) -> None:
    """Fail the entry's first verifier until its breaker opens."""
    guard = cache.containment
    for _ in range(guard.policy.failure_threshold):
        guard.note_verifier_failure(entry, entry.verifiers[0])
    assert cache.containment_stats.trips == 1


def test_an_open_verifier_breaker_forces_a_contained_hit_to_miss():
    cache, reference, entry, events = _contained_hit(ContainmentPolicy())
    _trip(cache, entry)
    stats = cache.containment_stats
    forced = stats.forced_misses
    outcome = cache.read(reference)
    assert not outcome.hit
    assert stats.forced_misses == forced + 1
    assert [
        event.payload["seam"] for event in events
        if (event.stage, event.outcome) == ("containment", "forced-miss")
    ] == ["verifier"]


def test_a_breaker_past_probation_admits_its_probe_and_closes():
    policy = ContainmentPolicy(
        failure_threshold=1, probation_delay_ms=10.0, half_open_successes=2
    )
    cache, reference, entry, events = _contained_hit(policy)
    _trip(cache, entry)
    stats = cache.containment_stats
    cache.core.ctx.clock.advance(policy.probation_delay_ms)
    assert cache.read(reference).hit  # the probe
    assert (stats.probes, stats.closes) == (1, 0)
    for _ in range(policy.half_open_successes - 1):
        assert cache.read(reference).hit
    assert (stats.probes, stats.closes, stats.forced_misses) == (1, 1, 0)
    assert cache.containment.open_sites()["verifier"] == set()
    outcomes = [
        event.outcome for event in events if event.stage == "containment"
    ]
    assert outcomes == ["tripped", "probe", "closed"]


def test_a_shedding_gate_counts_every_hit_and_still_sheds(monkeypatch):
    kernel = PlacelessKernel()
    references = [document.reference for document in _corpus(kernel)]
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 28,
        overload_policy=OverloadPolicy(hedging=False),
    )
    for _ in range(3):
        for reference in references:
            cache.read(reference)
    assert cache.stats.hits == 2 * len(references)
    assert cache.overload_stats.admitted == 3 * len(references)
    # One token that barely refills within the run, and a queue shorter
    # than one read: the third read in a row is shed.
    monkeypatch.setattr(admission, "ADMISSION_BURST", 1.0)
    monkeypatch.setattr(admission, "QUEUE_LIMIT", 0.5)
    tight = DocumentCache(
        kernel, capacity_bytes=1 << 28, name="tight",
        overload_policy=OverloadPolicy(
            hedging=False, admission_rate_per_s=0.001
        ),
    )
    tight.read(references[0])
    assert tight.read(references[0]).hit
    with pytest.raises(OverloadShedError):
        tight.read(references[0])
    stats = tight.overload_stats
    assert (stats.admitted, stats.shed) == (2, 1)
    assert tight.stats.hits == 1


def test_an_unhealthy_primary_fails_over_and_recovers():
    kernel = PlacelessKernel()
    reference = _corpus(kernel)[0].reference
    cluster = CacheCluster(
        kernel, 4, capacity_bytes=1 << 28,
        overload_policy=OverloadPolicy(shedding=False, hedging=False),
    )
    primary = cluster.shard_for(reference)
    (name,) = [n for n, shard in cluster.shards.items() if shard is primary]
    cluster.read(reference)
    assert cluster.read(reference).hit
    served = primary.stats.hits + primary.stats.misses
    overload = primary.overload_stats
    # The primary turns unhealthy between two reads.
    for _ in range(UNHEALTHY_ERROR_THRESHOLD):
        cluster.health.observe_error(name)
    cluster.read(reference)
    assert overload.failovers == 1
    assert primary.stats.hits + primary.stats.misses == served
    # Every fourth read canaries the primary; its clean answers restore it.
    interval = CacheCluster._PROBE_INTERVAL
    for _ in range(interval * RECOVERY_SUCCESSES - 1):
        cluster.read(reference)
    assert not cluster.health.is_unhealthy(name)
    assert overload.recoveries == 0
    assert primary.stats.hits + primary.stats.misses == (
        served + RECOVERY_SUCCESSES
    )
    assert cluster.read(reference).hit
    assert (overload.failovers, overload.recoveries) == (1, 1)
    assert primary.stats.hits + primary.stats.misses == (
        served + RECOVERY_SUCCESSES + 1
    )
    assert cluster.health_snapshot()[name]["state"] == "healthy"
