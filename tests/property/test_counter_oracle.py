"""Counter oracle: a counter written where it is decided equals the
counter the event stream implies.

The stats objects in ``core.metrics`` are written directly at the line
that decides each event.  The ``RULES`` tables say the same thing as a
function of the stage events: ``CacheStats.RULES`` and
``MemoStats.RULES`` still live beside their dataclasses, and the four
tables the concurrency, overload, recovery and containment stats were
derived from are kept below, verbatim, as the statement of what those
counters mean.  Each test late-subscribes one
:class:`~repro.cache.instrumentation.CounterProjection` per wired seam
— seeded with a copy of what the cache had counted before it
subscribed — drives a seeded op stream through one seam composition,
and then requires every ``core.metrics[name]`` to equal its projection
field by field, floats with ``==``.

The seed honours ``REPRO_CHAOS_SEED`` (77 / 101 / 202 in CI).
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import typing

import pytest

from repro.cache.instrumentation import CounterProjection, StageEvent
from repro.cache.manager import DocumentCache, WriteMode
from repro.cache.memo import MemoStats
from repro.cache.policies import (
    ConcurrencyPolicy,
    ContainmentPolicy,
    DegradationPolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
    StoragePolicy,
)
from repro.cache.recovery import RecoveryStats
from repro.cache.stats import CacheStats
from repro.cluster import CacheCluster, ClusterPolicy
from repro.cluster.memo_share import SharedTransformMemo
from repro.contract.verifiers import ThresholdVerifier, Verifier
from repro.errors import PlacelessError
from repro.events.types import EventType
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.scenarios import grayshard_chaos_scenario
from repro.overload.budget import DeadlineBudget
from repro.overload.gate import OverloadStats
from repro.placeless.collection import DocumentCollection
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.collection import attach_collection_prefetch
from repro.properties.qos import QoSProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.properties.versioning import VersioningProperty
from repro.workload.documents import CorpusSpec, build_corpus, generate_text
from repro.workload.users import build_population

from tests.property.test_pipeline_equivalence import run_seeded_workload

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))


# -- the four tables the counters were derived from ---------------------------


def _count_shed(stats: OverloadStats, event: StageEvent) -> None:
    """``overload/shed``: the counter is named by the priority class."""
    priority = event.payload.get("priority")
    name = "shed_" + (priority if priority in ("bulk", "qos") else "critical")
    setattr(stats, name, getattr(stats, name) + 1)


CONCURRENCY_RULES: typing.Mapping = {
    ("coalesce", "led"): (("flights_led", 1),),
    ("coalesce", "followed"): (("follows", 1),),
    ("coalesce", "promoted"): (("promotions", 1),),
    ("coalesce", "bailed-contained"): (("bailed_contained", 1),),
}

OVERLOAD_RULES: typing.Mapping = {
    ("overload", "admitted"): (("admitted", 1),),
    ("overload", "shed"): _count_shed,
    ("deadline", "exceeded"): (("deadline_exceeded", 1),),
    ("deadline", "late"): (("deadline_late", 1),),
    ("deadline", "skipped"): (("deadline_skips", 1),),
    ("deadline", "violated"): (("deadline_violations", 1),),
    ("hedge", "launched"): (("hedges_launched", 1),),
    ("hedge", "won"): (("hedges_won", 1),),
    ("hedge", "lost"): (("hedges_lost", 1),),
    ("health", "failover"): (("failovers", 1),),
    ("health", "recovered"): (("recoveries", 1),),
}


def _count_repair(stats: RecoveryStats, event: StageEvent) -> None:
    """``resync/repaired``: also attributed to the payload's
    consistency class."""
    stats.resync_repairs += 1
    cls = event.payload.get("invalidation_class", 0)
    stats.repairs_by_class[cls] = stats.repairs_by_class.get(cls, 0) + 1


RECOVERY_RULES: typing.Mapping = {
    ("channel", "gap"): (
        ("gaps_detected", 1), ("notifications_missed", "missed"),
    ),
    ("channel", "checkpoint-gap"): (
        ("checkpoint_gaps", 1), ("notifications_missed", "missed"),
    ),
    ("channel", "late"): (("late_deliveries", 1),),
    ("channel", "epoch"): (("epoch_bumps", 1),),
    ("lease", "granted"): (("lease_grants", 1),),
    ("lease", "renewed"): (("lease_renewals", 1),),
    ("lease", "blocked"): (("lease_renewals_blocked", 1),),
    ("lease", "lapsed"): (("lease_lapses", 1),),
    ("resync", "started"): (("resyncs", 1),),
    ("resync", "repaired"): _count_repair,
    ("journal", "appended"): (("journal_appends", 1),),
    ("journal", "flush-marked"): (("journal_flush_marks", 1),),
    ("journal", "replayed"): (("journal_replayed", 1),),
    ("journal", "replay-skipped"): (("journal_replays_skipped", 1),),
    ("crash", "crashed"): (("crashes", 1),),
    ("crash", "restarted"): (("restarts", 1),),
}

CONTAINMENT_RULES: typing.Mapping = {
    ("containment", "contained"): (("failures_contained", 1),),
    ("containment", "budget-exceeded"): (("budget_overruns", 1),),
    ("containment", "escaped"): (("escapes", 1),),
    ("containment", "tripped"): (("trips", 1),),
    ("containment", "reopened"): (("reopens", 1),),
    ("containment", "closed"): (("closes", 1),),
    ("containment", "probe"): (("probes", 1),),
    ("containment", "skipped"): (("optional_skips", 1),),
    ("containment", "forced-miss"): (("forced_misses", 1),),
    ("containment", "denied"): (("denials", 1),),
    ("containment", "suppressed"): (("notifier_suppressed", 1),),
}

#: Each derivable ``core.metrics`` group's table.  ``storage`` has none:
#: the L2 tier has always written its counters itself.
TABLES: dict[str, typing.Mapping] = {
    "cache": CacheStats.RULES,
    "memo": MemoStats.RULES,
    "concurrency": CONCURRENCY_RULES,
    "overload": OVERLOAD_RULES,
    "recovery": RECOVERY_RULES,
    "containment": CONTAINMENT_RULES,
}


# -- the oracle ----------------------------------------------------------------


def _values(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}


class Oracle:
    """One late-subscribed projection per wired seam of some caches.

    The containment guard is the world's, not a cache's: its events
    reach the bus of the cache that built it, *builder*, so only that
    cache gets a containment projection.
    """

    def __init__(self) -> None:
        self.pairs: list[tuple[str, typing.Any, typing.Any]] = []

    def watch(self, cache: DocumentCache, builder: bool = True) -> None:
        for name, stats in cache.core.metrics.items():
            if name not in TABLES or (name == "containment" and not builder):
                continue
            projection = CounterProjection(copy.deepcopy(stats), TABLES[name])
            cache.instrumentation.subscribe(
                projection, stages=projection.stages
            )
            self.pairs.append((f"{cache.core.name}/{name}", stats, projection))

    def check(self) -> set[str]:
        """Assert every pair agrees; returns the groups compared."""
        for label, written, projection in self.pairs:
            wrote, projected = _values(written), _values(projection.stats)
            assert wrote == projected, (label, {
                name: (wrote[name], projected[name])
                for name in wrote if wrote[name] != projected[name]
            })
        return {label.split("/")[1] for label, _, _ in self.pairs}


def _world(seed: int, n_documents: int, n_users: int, **spec):
    kernel = PlacelessKernel()
    corpus = build_corpus(
        kernel, kernel.create_user("owner"),
        CorpusSpec(n_documents=n_documents, ttl_ms=4_000.0, seed=seed, **spec),
    )
    population = build_population(
        kernel, corpus, n_users, personalized_fraction=0.0, seed=seed
    )
    return kernel, corpus, population


def _mutate(document, rng: random.Random) -> None:
    document.provider.mutate_out_of_band(
        generate_text(document.size_bytes, seed=rng.randrange(2**16))
    )


# -- single-cache traces ---------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        dict(),
        dict(capacity_factor=0.25),
        dict(chaos=True),
        dict(write_mode=WriteMode.WRITE_BACK),
        dict(write_mode=WriteMode.WRITE_BACK, chaos=True),
    ],
    ids=["write-through", "evicting", "chaos", "write-back", "write-back-chaos"],
)
def test_trace_counters_match_the_event_stream(config):
    oracle = Oracle()
    handle: dict = {}

    def wire(cache: DocumentCache) -> None:
        handle["cache"] = cache
        oracle.watch(cache)

    run_seeded_workload(CHAOS_SEED, wire=wire, **config)
    cache = handle["cache"]
    cache.flush_all()
    assert oracle.check() == {"cache"}
    assert cache.stats.hits and cache.stats.misses
    if config.get("write_mode") is WriteMode.WRITE_BACK:
        assert cache.stats.writes_backed and cache.stats.flushes


# -- property-driven paths ---------------------------------------------------


class _Exploding(Verifier):
    def verify(self, now_ms, content):
        raise RuntimeError("verifier exploded")


class _Verified(ActiveProperty):
    """Hands every fill the verifier *make* builds."""

    def __init__(self, name: str, make) -> None:
        super().__init__(name)
        self._make = make

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def make_verifier(self):
        return self._make()


def test_property_driven_counters_match():
    # Forwarding, an UNCACHEABLE vote, a revalidating and a raising
    # verifier, collection prefetch, a memo serve imported from a
    # sibling cache's store, ground-truth
    # staleness and the degradation ladder: each once in a scripted
    # prefix, then mixed in a seeded stream with failing fetches.
    seed = CHAOS_SEED
    # Web documents: TTL-verified, so an out-of-band change goes unseen
    # until the TTL lapses.
    kernel, corpus, population = _world(
        seed, n_documents=8, n_users=3, repository_mix=(("www", 1.0),)
    )
    ctx = kernel.ctx
    quote = [100.0]
    audited, uncacheable, quoted, exploding = (
        population.reference(0, document) for document in range(4)
    )
    audited.attach(ReadAuditTrailProperty())
    uncacheable.attach(UncacheableProperty())
    quoted.attach(_Verified("quote", lambda: ThresholdVerifier(
        observe=lambda: quote[0], baseline=quote[0], threshold_fraction=0.05,
        patcher=lambda content, value: b"quote:%d" % value,
    )))
    exploding.attach(_Verified("exploding", _Exploding))
    versioned = population.reference(2, 4)
    versioned.attach(VersioningProperty())
    # A sibling app-level cache on one memo plane, so a memo serve can
    # import its bytes.
    plane = SharedTransformMemo(MemoPolicy().capacity)
    peer = DocumentCache(
        kernel, capacity_bytes=1 << 24, memo_policy=MemoPolicy(),
        memo=plane, name="peer",
    )
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 24,
        write_mode=WriteMode.WRITE_BACK, track_staleness=True,
        memo_policy=MemoPolicy(), memo=plane,
        degradation_policy=DegradationPolicy(
            serve_stale_on_error=True, stale_serve_max_age_ms=10_000.0,
            verifier_quarantine_threshold=2,
        ),
    )
    for name, member in (("peer", peer), ("cache", cache)):
        plane.attach(name, member.core)
    shelf = DocumentCollection("shelf", population.users[1])
    for document in (5, 6, 7):
        shelf.add(population.reference(1, document))
    attach_collection_prefetch(shelf, cache)
    oracle = Oracle()
    oracle.watch(cache)
    oracle.watch(peer)
    rng = random.Random(seed)

    # The scripted prefix: no faults but one provider outage.
    ctx.faults = FaultPlan(ctx.clock, outages=(OutageWindow(5_000.0, 6_000.0),))
    peer.read(population.reference(1, 4))
    assert cache.read(population.reference(0, 4)).disposition == (
        "miss-memoized"
    )
    for reference in (audited, audited, uncacheable, quoted):
        cache.read(reference)
    quote[0] *= 1.2
    assert cache.read(quoted).disposition == "revalidated"
    for _ in range(4):  # raises twice, is quarantined, forces a miss
        cache.read(exploding)
    cache.read(population.reference(1, 5))  # prefetches the shelf
    cache.read(population.reference(1, 6))
    stale = population.reference(2, 7)
    cache.read(stale)
    _mutate(corpus[7], rng)
    cache.read(stale)  # the TTL has not lapsed: a stale hit
    ctx.clock.advance_to(5_000.0)
    cache.write(versioned, b"buffered during the outage")
    with pytest.raises(PlacelessError):
        cache.flush_all()
    assert cache.read(stale).disposition == "stale-on-error"
    ctx.clock.advance_to(6_000.0)

    # The stream.
    ctx.faults = FaultPlan(ctx.clock, seed=seed, fetch_failure_probability=0.2)
    for step in range(200):
        reference = population.reference(rng.randrange(3), rng.randrange(8))
        roll = rng.random()
        try:
            if roll < 0.08:
                cache.write(reference, b"written %d" % step)
            elif roll < 0.12:
                cache.flush_all()
            elif roll < 0.18:
                _mutate(corpus[rng.randrange(8)], rng)
            elif roll < 0.2:
                quote[0] *= 1.2
            else:
                cache.read(reference)
        except PlacelessError:
            pass
        ctx.clock.advance(rng.uniform(10.0, 200.0))
    assert oracle.check() == {"cache", "memo"}
    stats = cache.stats
    assert stats.forwarded_reads and stats.forwarded_writes
    assert stats.uncacheable_reads and stats.verifier_revalidations
    assert stats.quarantined_verifiers and stats.quarantine_forced_misses
    assert stats.prefetch_fills and stats.prefetched_hits
    assert stats.stale_hits and cache.memo_stats.imports
    assert stats.stale_served_on_error and stats.flush_failures
    assert stats.degraded_serves and stats.fetch_failures


# -- recovery ----------------------------------------------------------------


def test_recovery_counters_match_under_loss_partition_and_crash():
    seed = CHAOS_SEED
    kernel, corpus, population = _world(seed, n_documents=8, n_users=3)
    ctx = kernel.ctx
    ctx.faults = FaultPlan(
        ctx.clock,
        seed=seed,
        notifier_loss_probability=0.2,
        notifier_delay_probability=0.1,
        notifier_delay_ms=300.0,
        bus_outages=(OutageWindow(3_000.0, 9_000.0),),
        cache_crashes=(12_000.0,),
    )
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 24, write_mode=WriteMode.WRITE_BACK,
        recovery_policy=RecoveryPolicy(lease_term_ms=1_000.0),
        storage_policy=StoragePolicy(),
    )
    oracle = Oracle()
    oracle.watch(cache)
    rng = random.Random(seed)
    try:
        for step in range(240):
            user = rng.randrange(3)
            document = rng.randrange(8)
            reference = population.reference(user, document)
            roll = rng.random()
            if roll < 0.15:
                cache.write(reference, b"buffered %d" % step)
            elif roll < 0.2:
                cache.flush_all()
            elif roll < 0.25:
                _mutate(corpus[document], rng)
            else:
                cache.read(reference)
            ctx.clock.advance(rng.uniform(20.0, 120.0))
            if step == 180:
                cache.crash()
                cache.restart()
        cache.resync()
        cache.flush_all()
        assert oracle.check() == {"cache", "recovery"}
        stats = cache.recovery_stats
        assert stats.crashes >= 2 and stats.restarts >= 2
        assert stats.lease_renewals_blocked and stats.resyncs
        assert stats.journal_appends and stats.journal_flush_marks
    finally:
        cache.shutdown()


# -- memo + single-flight --------------------------------------------------------


def test_memo_and_single_flight_counters_match():
    seed = CHAOS_SEED
    kernel, corpus, population = _world(seed, n_documents=6, n_users=5)
    for document in corpus:
        document.reference.base.attach(TranslationProperty())
    # One chain votes UNCACHEABLE, so the memo negative-caches it; one
    # hands out a verifier that raises, so its records never serve.
    corpus[0].reference.base.attach(UncacheableProperty())
    corpus[1].reference.base.attach(_Verified("exploding", _Exploding))
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 24,
        memo_policy=MemoPolicy(capacity=4),
        concurrency_policy=ConcurrencyPolicy(),
    )
    oracle = Oracle()
    oracle.watch(cache)
    rng = random.Random(seed)
    for wave in range(12):
        batch = [
            population.reference(rng.randrange(5), rng.randrange(6))
            for _ in range(16)
        ]
        cache.read_many(batch + batch[:4])
        for document in rng.sample(corpus, 2):
            cache.invalidate_document(document.reference.base.document_id)
        if wave % 4 == 1:
            _mutate(rng.choice(corpus), rng)
        if wave == 7:
            cache.crash()
            cache.restart()
    assert oracle.check() == {"cache", "memo", "concurrency"}
    memo = cache.memo_stats
    assert memo.adoptions and memo.evictions and memo.purged
    assert memo.negative_hits and memo.verifier_drops
    assert cache.concurrency_stats.follows and cache.concurrency_stats.flights_led


# -- overload ----------------------------------------------------------------


def test_overload_counters_match_with_shedding_and_deadlines():
    seed = CHAOS_SEED
    kernel, corpus, population = _world(seed, n_documents=8, n_users=4)
    for index in range(0, 8, 2):
        population.reference(1, index).attach(
            QoSProperty(max_access_time_ms=500.0)
        )
    shedding = DocumentCache(
        kernel, capacity_bytes=1 << 24, name="shedding",
        overload_policy=OverloadPolicy(
            deadlines=False, hedging=False, admission_rate_per_s=1.0,
            admission_burst=2.0, queue_limit=2.0, sojourn_threshold_ms=0.5,
        ),
    )
    deadlines = DocumentCache(
        kernel, capacity_bytes=1 << 24, name="deadlines",
        memo_policy=MemoPolicy(),
        concurrency_policy=ConcurrencyPolicy(),
        storage_policy=StoragePolicy(),
        overload_policy=OverloadPolicy(
            shedding=False, hedging=False, default_deadline_ms=1.0,
            deadline_from_qos=False,
        ),
    )
    oracle = Oracle()
    oracle.watch(shedding)
    oracle.watch(deadlines)
    rng = random.Random(seed)
    references = [
        population.reference(user, document)
        for user in range(4) for document in range(8)
    ]
    try:
        for _ in range(4):
            rng.shuffle(references)
            shedding.read_many(references)
            deadlines.read_many(references[:12])
            kernel.ctx.clock.advance(2_000.0)
        expired = DeadlineBudget(kernel.ctx.clock, 1.0)
        kernel.ctx.clock.advance(5.0)
        deadlines.core.fetch_with_retry(references[0], budget=expired)
        assert oracle.check() == {"cache", "overload", "memo", "concurrency"}
        shed = shedding.overload_stats
        assert shed.shed_bulk and shed.shed_qos and shed.admitted
        late = deadlines.overload_stats
        assert late.deadline_exceeded and late.deadline_violations == 1
    finally:
        deadlines.shutdown()


# -- containment ------------------------------------------------------------------


def test_containment_counters_match_with_misbehaving_properties():
    seed = CHAOS_SEED
    kernel, corpus, population = _world(seed, n_documents=6, n_users=3)
    ctx = kernel.ctx
    ctx.faults = FaultPlan(
        ctx.clock, seed=seed, property_failure_probability=0.3,
        property_runaway_cost_ms=40.0,
    )
    for document in corpus:
        document.reference.base.attach(TranslationProperty())
    policy = ContainmentPolicy(
        failure_threshold=2, probation_delay_ms=300.0, max_cost_ms=20.0,
    )
    builder = DocumentCache(
        kernel, capacity_bytes=1 << 24, name="builder",
        containment_policy=policy, memo_policy=MemoPolicy(),
        concurrency_policy=ConcurrencyPolicy(),
    )
    attached = DocumentCache(
        kernel, capacity_bytes=1 << 24, name="attached",
        containment_policy=policy,
    )
    oracle = Oracle()
    oracle.watch(builder)
    oracle.watch(attached, builder=False)
    rng = random.Random(seed)
    for wave in range(20):
        batch = [
            population.reference(rng.randrange(3), rng.randrange(6))
            for _ in range(8)
        ]
        for cache in (builder, attached):
            for outcome in cache.read_many(batch, return_exceptions=True):
                assert not isinstance(outcome, BaseException) or isinstance(
                    outcome, PlacelessError
                ), outcome
        if wave % 3 == 0:
            reference = rng.choice(batch)
            try:
                builder.write(reference, b"rewritten %d" % wave)
            except PlacelessError:
                pass
        for document in rng.sample(corpus, 2):
            for cache in (builder, attached):
                cache.invalidate_document(document.reference.base.document_id)
        ctx.clock.advance(150.0)
    assert oracle.check() == {
        "cache", "containment", "memo", "concurrency",
    }
    stats = builder.containment_stats
    assert attached.containment_stats is stats
    assert stats.failures_contained and stats.trips and stats.probes


# -- a cluster ----------------------------------------------------------------


def test_cluster_counters_match_with_hedging_and_a_lost_shard():
    seed = CHAOS_SEED
    kernel, corpus, population = _world(seed, n_documents=8, n_users=6)
    ctx = kernel.ctx
    ctx.faults = grayshard_chaos_scenario(
        ctx.clock, seed=seed, duration_ms=60_000.0
    )
    cluster = CacheCluster(
        kernel, 4, capacity_bytes=1 << 24,
        cluster_policy=ClusterPolicy(),
        memo_policy=MemoPolicy(),
        concurrency_policy=ConcurrencyPolicy(),
        recovery_policy=RecoveryPolicy(),
        overload_policy=OverloadPolicy(health_min_samples=4),
        shard_kwargs={"containment_policy": ContainmentPolicy()},
    )
    oracle = Oracle()
    for index, shard in enumerate(cluster.shards.values()):
        oracle.watch(shard, builder=index == 0)
    references = [
        population.reference(user, document)
        for user in range(6) for document in range(8)
    ]
    rng = random.Random(seed)
    for rnd in range(30):
        for document in rng.sample(corpus, 2):
            cluster.invalidate_document(document.reference.base.document_id)
        for reference in rng.sample(references, 16):
            ctx.clock.charge(8.0)
            cluster.read(reference)
        cluster.read_many(rng.sample(references, 8), return_exceptions=True)
        if rnd == 10:
            # Three failed reads mark a shard unhealthy: the next read
            # that places on it fails over, and clean canaries bring it
            # back.
            for _ in range(3):
                cluster.health.observe_error("cluster-2")
        if rnd == 20:
            cluster.lose_shard("cluster-3")
            added = cluster.add_shard()
            oracle.watch(cluster.shards[added], builder=False)
    assert oracle.check() == {
        "cache", "memo", "concurrency", "overload", "recovery",
        "containment",
    }
    totals = cluster.overload_stats
    assert totals.hedges_launched and totals.failovers and totals.recoveries
