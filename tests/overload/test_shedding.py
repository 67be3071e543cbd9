"""Flash-crowd shedding through ``read_many`` and cache/cluster parity.

A 32-way batch against a deliberately tiny admission allowance is the
paper's overload story in miniature: the batch always runs to
termination, shed and deadline-failed reads come back *in place* as
typed errors (an overloaded batch is an expected outcome, not a caller
bug), bulk sheds first and critical never does — and a standalone
cache and a cluster make position-identical decisions for the same
workload.
"""

from __future__ import annotations

import pytest

from repro.cache.core import CacheCore
from repro.cache.manager import CacheReadOutcome, DocumentCache
from repro.cache.policies import DefaultOverloadPolicy
from repro.cluster import CacheCluster
from repro.errors import (
    ContentUnavailableError,
    DeadlineExceededError,
    OverloadShedError,
)
from repro.faults.retry import RetryPolicy
from repro.overload import admission, gate
from repro.overload.budget import DeadlineBudget
from repro.placeless.kernel import PlacelessKernel
from repro.properties.qos import AlwaysAvailableProperty
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

_SEED = 31
_N_USERS = 8
_N_DOCUMENTS = 4


@pytest.fixture(autouse=True)
def tight_gate(monkeypatch):
    """Admission so small a 32-way flash crowd must mostly shed, and a
    default allowance no read reaches, which isolates the gate; a test
    of the deadline half lowers the allowance itself."""
    monkeypatch.setattr(admission, "ADMISSION_BURST", 2.0)
    monkeypatch.setattr(admission, "QUEUE_LIMIT", 2.0)
    monkeypatch.setattr(admission, "SOJOURN_THRESHOLD_MS", 0.5)
    monkeypatch.setattr(gate, "DEFAULT_DEADLINE_MS", float("inf"))


def _tight_policy(**overrides):
    """A one-read-per-second bucket over :func:`tight_gate`'s limits."""
    settings = dict(hedging=False, admission_rate_per_s=1.0)
    settings.update(overrides)
    return DefaultOverloadPolicy(**settings)


def _deploy(policy, *, cluster_shards=0, decorate=None, name="shed"):
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel,
        owner,
        CorpusSpec(n_documents=_N_DOCUMENTS, ttl_ms=3_600_000.0, seed=_SEED),
    )
    if decorate is not None:
        for index, document in enumerate(corpus):
            decorate(index, document)
    population = build_population(
        kernel, corpus, _N_USERS, personalized_fraction=0.0, seed=_SEED
    )
    if cluster_shards:
        cache = CacheCluster(
            kernel,
            cluster_shards,
            capacity_bytes=1 << 30,
            overload_policy=policy,
            name=name,
        )
    else:
        cache = DocumentCache(
            kernel,
            capacity_bytes=1 << 30,
            overload_policy=policy,
            name=name,
        )
    references = [
        population.reference(user, document)
        for user in range(_N_USERS)
        for document in range(_N_DOCUMENTS)
    ]
    return cache, references


class TestFlashCrowdShedding:
    def test_shed_reads_return_in_place_and_the_batch_finishes(self):
        cache, references = _deploy(_tight_policy())
        outcomes = cache.read_many(references)
        assert len(outcomes) == len(references) == 32
        served = [o for o in outcomes if isinstance(o, CacheReadOutcome)]
        shed = [o for o in outcomes if isinstance(o, OverloadShedError)]
        assert len(served) + len(shed) == 32
        # The 2 burst tokens admit the first arrivals; by the third
        # read the early fetches have burned tens of virtual
        # milliseconds of shared-enqueue sojourn, so the CoDel gate
        # sheds the rest of the crowd (overdraft headroom only helps
        # while sojourn stays under the threshold).
        assert len(served) == 2
        assert len(shed) == 30
        assert all(
            isinstance(o, CacheReadOutcome) for o in outcomes[:2]
        )
        stats = cache.overload_stats
        assert stats.admitted == 2
        assert stats.shed == stats.shed_bulk == 30
        assert stats.shed_critical == 0

    def test_shed_reads_do_no_cache_work(self):
        cache, references = _deploy(_tight_policy())
        cache.read_many(references)
        core_stats = cache.stats
        # Only the two admitted reads reached the pipeline at all.
        assert core_stats.hits + core_stats.misses == 2

    def test_critical_reads_are_never_shed(self):
        def pin_everything(index, document):
            document.reference.base.attach(AlwaysAvailableProperty())

        cache, references = _deploy(
            _tight_policy(), decorate=pin_everything
        )
        outcomes = cache.read_many(references)
        assert all(isinstance(o, CacheReadOutcome) for o in outcomes)
        stats = cache.overload_stats
        assert stats.admitted == 32
        assert stats.shed == 0

    def test_bulk_sheds_while_critical_sails_through(self):
        def pin_even_documents(index, document):
            if index % 2 == 0:
                document.reference.base.attach(AlwaysAvailableProperty())

        cache, references = _deploy(
            _tight_policy(), decorate=pin_even_documents
        )
        outcomes = cache.read_many(references)
        # references interleave documents 0..3 per user; even documents
        # are critical, odd ones bulk.
        for position, outcome in enumerate(outcomes):
            if position % _N_DOCUMENTS % 2 == 0:
                assert isinstance(outcome, CacheReadOutcome)
        stats = cache.overload_stats
        assert stats.shed_critical == 0
        assert stats.shed_bulk > 0

    def test_deadline_failures_also_return_in_place(self, monkeypatch):
        monkeypatch.setattr(gate, "DEFAULT_DEADLINE_MS", 1.0)
        policy = _tight_policy(shedding=False)
        cache, references = _deploy(policy)
        outcomes = cache.read_many(references[:8])
        assert len(outcomes) == 8
        # The whole batch shares one enqueue instant; the first read's
        # fetch burns far more than the 1 ms allowance, so every later
        # read arrives already expired and degrades to a typed error.
        assert isinstance(outcomes[0], CacheReadOutcome)
        assert all(
            isinstance(o, DeadlineExceededError) for o in outcomes[1:]
        )
        stats = cache.overload_stats
        assert stats.deadline_exceeded == 7
        # The invariant the CI gate pins: no work ever *starts* past an
        # expired deadline.
        assert stats.deadline_violations == 0

    def test_the_violation_invariant_can_fail(self):
        # Nothing used to emit ``deadline/violated``, so the counter
        # (and every gate on it) read zero whatever the pipeline did.
        cache, references = _deploy(_tight_policy(shedding=False))
        clock = cache.ctx.clock
        budget = DeadlineBudget(clock, 1.0)
        cache.core.fetch_with_retry(references[0], budget=budget)
        assert cache.overload_stats.deadline_violations == 0
        assert budget.expired  # the fetch itself overran: late, not violated
        cache.core.fetch_with_retry(references[0], budget=budget)
        assert cache.overload_stats.deadline_violations == 1

    def test_a_retry_begun_past_the_deadline_is_a_violation(
        self, monkeypatch
    ):
        class BudgetBlindRetry:
            """Sleeps its backoff whatever the budget says — the bug
            ``RetryPolicy.call``'s ``delay_ms >= remaining`` rule rules
            out."""

            def call(self, ctx, fn, on_retry, budget_ms):
                try:
                    return fn()
                except ContentUnavailableError as error:
                    ctx.charge(50.0)
                    on_retry(1, 50.0, error)
                    return fn()

        fetch = CacheCore.fetch

        def run(retry_policy):
            cache, references = _deploy(_tight_policy(shedding=False))
            core = cache.core
            core.retry_policy = retry_policy
            failures = [ContentUnavailableError("down")]

            def fails_once(self, reference):
                if failures:
                    raise failures.pop()
                return fetch(self, reference)

            # A core is slotted: the method is swapped on its class.
            monkeypatch.setattr(CacheCore, "fetch", fails_once)
            budget = DeadlineBudget(core.ctx.clock, 10.0)
            try:
                core.fetch_with_retry(references[0], budget=budget)
            except ContentUnavailableError:
                pass
            return cache.stats.retries, cache.overload_stats

        retries, stats = run(BudgetBlindRetry())
        assert (retries, stats.deadline_violations) == (1, 1)
        # The real policy refuses the 50 ms sleep a 10 ms budget cannot
        # cover, so no attempt ever begins late.
        retries, stats = run(RetryPolicy(max_attempts=2, base_delay_ms=50.0))
        assert (retries, stats.deadline_violations) == (0, 0)


class TestCacheClusterParity:
    def test_one_shard_cluster_matches_the_standalone_cache_exactly(self):
        # Admission state lives per shard, so the apples-to-apples
        # comparison is one shard: identical workload, identical
        # position-by-position outcome types and shed totals.
        solo_cache, solo_refs = _deploy(_tight_policy(), name="solo")
        cluster, cluster_refs = _deploy(
            _tight_policy(), cluster_shards=1, name="uno"
        )
        solo = solo_cache.read_many(solo_refs)
        sharded = cluster.read_many(cluster_refs)
        assert [type(o) for o in solo] == [type(o) for o in sharded]
        assert (
            solo_cache.overload_stats.shed
            == cluster.overload_stats.shed
        )

    def test_multi_shard_cluster_sheds_per_shard_with_typed_outcomes(self):
        cluster, references = _deploy(
            _tight_policy(), cluster_shards=2, name="duo"
        )
        outcomes = cluster.read_many(references)
        assert len(outcomes) == len(references)
        assert all(
            isinstance(o, (CacheReadOutcome, OverloadShedError))
            for o in outcomes
        )
        served = sum(isinstance(o, CacheReadOutcome) for o in outcomes)
        # Each shard brings its own token bucket, so a 2-shard cluster
        # admits more of the crowd than one cache would — but the gate
        # still sheds the bulk of it.
        assert 2 <= served <= 8
        assert cluster.overload_stats.shed == 32 - served

    def test_parity_holds_for_deadline_failures_too(self, monkeypatch):
        monkeypatch.setattr(gate, "DEFAULT_DEADLINE_MS", 1.0)
        policy_kwargs = dict(shedding=False)
        solo_cache, solo_refs = _deploy(
            _tight_policy(**policy_kwargs), name="solo-ddl"
        )
        cluster, cluster_refs = _deploy(
            _tight_policy(**policy_kwargs), cluster_shards=2, name="duo-ddl"
        )
        solo = solo_cache.read_many(solo_refs[:8])
        sharded = cluster.read_many(cluster_refs[:8])
        assert [type(o) for o in solo] == [type(o) for o in sharded]
