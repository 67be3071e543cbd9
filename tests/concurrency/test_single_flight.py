"""Single-flight semantics inside an interleaved batch.

The contract the tentpole promises: N concurrent misses on one hot key
cost exactly one provider fetch and one property-chain execution — the
leader's — and every follower is answered from that result (a
verifier-gated hit on the same key, a memo adoption on the memo-plane
key).  Plus the safety valves: leader-failure promotion, the
coalescing-disabled ablation, breaker-open bail-out and the follower
budget.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
)
from repro.errors import ContentUnavailableError
from repro.events.types import EventType
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext

STAMPEDE = 32


class CountingProvider(MemoryProvider):
    """Counts full repository fetches (metadata peeks excluded)."""

    def __init__(self, ctx, content=b""):
        super().__init__(ctx, content)
        self.retrievals = 0

    def fetch(self):
        self.retrievals += 1
        return super().fetch()


class FailingThenHealthyProvider(CountingProvider):
    """Fails the first *failures* fetches, then recovers."""

    def __init__(self, ctx, content=b"", failures=1):
        super().__init__(ctx, content)
        self.failures = failures

    def fetch(self):
        self.retrievals += 1
        if self.retrievals <= self.failures:
            raise ContentUnavailableError("repository hiccup")
        return MemoryProvider.fetch(self)


class RaisingProperty(ActiveProperty):
    """A stream wrapper that explodes until told to behave."""

    execution_cost_ms = 0.1

    def __init__(self, name="bad-prop"):
        super().__init__(name)
        self.misbehave = True

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def wrap_input(self, stream, event):
        if self.misbehave:
            raise RuntimeError("property exploded")
        return stream


def _deployment(provider_cls=CountingProvider, content=b"stampede" * 64,
                n_users=1, **cache_kwargs):
    """Kernel + one document + one reference per user + a cache."""
    ctx = SimContext()
    kernel = PlacelessKernel(ctx)
    owner = kernel.create_user("owner")
    provider = provider_cls(ctx, content)
    base = kernel.create_document(owner, provider, "doc")
    references = []
    for index in range(n_users):
        user = owner if n_users == 1 else kernel.create_user(f"user-{index}")
        references.append(kernel.space(user).add_reference(base))
    cache_kwargs.setdefault("capacity_bytes", 1 << 20)
    cache_kwargs.setdefault("concurrency_policy", DefaultConcurrencyPolicy())
    cache = DocumentCache(kernel, **cache_kwargs)
    return kernel, provider, references, cache


class TestSingleFlight:
    """N concurrent misses → 1 fetch + 1 chain execution + N-1 follows."""

    def test_stampede_coalesces_to_one_fetch(self):
        kernel, provider, (reference,), cache = _deployment()
        outcomes = cache.read_many([reference] * STAMPEDE)
        assert provider.retrievals == 1
        assert kernel.stats.reads == 1  # one property-chain execution
        assert len(outcomes) == STAMPEDE
        assert sum(not o.hit for o in outcomes) == 1  # the leader's miss
        assert sum(o.hit for o in outcomes) == STAMPEDE - 1
        assert len({o.content for o in outcomes}) == 1
        stats = cache.concurrency_stats
        assert stats.flights_led == 1
        assert stats.follows == STAMPEDE - 1
        assert stats.promotions == 0
        assert stats.fetches_saved == STAMPEDE - 1

    def test_memo_plane_coalesces_across_users(self):
        # Different users, different entry keys — but identical source
        # bytes and identical (empty) chains: the memo-plane key shares
        # one chain execution, followers adopt the leader's record.
        kernel, provider, references, cache = _deployment(
            n_users=8, memo_policy=DefaultMemoPolicy()
        )
        outcomes = cache.read_many(references)
        assert provider.retrievals == 1
        assert kernel.stats.reads == 1
        dispositions = sorted(o.disposition for o in outcomes)
        assert dispositions.count("miss") == 1  # the leader
        assert dispositions.count("miss-memoized") == 7
        assert len({o.content for o in outcomes}) == 1
        assert cache.concurrency_stats.follows == 7

    def test_distinct_documents_do_not_coalesce(self):
        ctx = SimContext()
        kernel = PlacelessKernel(ctx)
        owner = kernel.create_user("owner")
        references = []
        providers = []
        for index in range(4):
            provider = CountingProvider(ctx, f"doc {index}".encode() * 16)
            providers.append(provider)
            base = kernel.create_document(owner, provider, f"doc-{index}")
            references.append(kernel.space(owner).add_reference(base))
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            concurrency_policy=DefaultConcurrencyPolicy(),
        )
        outcomes = cache.read_many(references)
        assert [p.retrievals for p in providers] == [1, 1, 1, 1]
        assert all(not o.hit for o in outcomes)
        assert cache.concurrency_stats.follows == 0

    def test_batch_after_fill_is_all_hits(self):
        _, provider, (reference,), cache = _deployment()
        cache.read(reference)
        outcomes = cache.read_many([reference] * 8)
        assert provider.retrievals == 1
        assert all(o.hit for o in outcomes)
        assert cache.concurrency_stats.flights_led == 0


class TestLeaderFailurePromotion:
    """A failed leader's followers promote instead of inheriting the error."""

    def test_first_follower_promotes_and_the_rest_refollow(self):
        kernel, provider, (reference,), cache = _deployment(
            provider_cls=FailingThenHealthyProvider
        )
        outcomes = cache.read_many(
            [reference] * 8, return_exceptions=True
        )
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        # The leader's read fails; every follower is answered by the
        # promoted read's fetch — exactly two retrievals in total.
        assert len(errors) == 1
        assert isinstance(errors[0], ContentUnavailableError)
        assert len(served) == 7
        assert provider.retrievals == 2
        assert len({o.content for o in served}) == 1
        stats = cache.concurrency_stats
        assert stats.flights_led == 2  # original leader + promoted follower
        assert stats.promotions >= 1

    def test_all_leaders_failing_fails_every_read(self):
        _, provider, (reference,), cache = _deployment(
            provider_cls=FailingThenHealthyProvider
        )
        provider.failures = 10**9  # never recovers
        outcomes = cache.read_many([reference] * 4, return_exceptions=True)
        assert all(isinstance(o, ContentUnavailableError) for o in outcomes)
        # Each read promoted in turn and failed its own fetch.
        assert provider.retrievals == 4

    def test_failure_without_return_exceptions_raises(self):
        _, provider, (reference,), cache = _deployment(
            provider_cls=FailingThenHealthyProvider
        )
        provider.failures = 10**9
        with pytest.raises(ContentUnavailableError):
            cache.read_many([reference] * 4)


class TestCoalescingDisabled:
    """The ablation: async interleaving without single-flight."""

    def test_disabled_coalescing_stampedes_the_provider(self):
        _, provider, (reference,), cache = _deployment(
            concurrency_policy=DefaultConcurrencyPolicy(coalesce=False)
        )
        outcomes = cache.read_many([reference] * 8)
        # All eight pass the lookup stage before any fill lands: the
        # textbook stampede the single-flight machinery exists to stop.
        assert provider.retrievals == 8
        assert all(not o.hit for o in outcomes)
        assert cache.concurrency_stats.flights_led == 0
        assert cache.concurrency_stats.follows == 0

    def test_disabled_coalescing_serves_the_same_bytes(self):
        _, _, (ref_off,), cache_off = _deployment(
            concurrency_policy=DefaultConcurrencyPolicy(coalesce=False)
        )
        _, _, (ref_on,), cache_on = _deployment()
        off = cache_off.read_many([ref_off] * 8)
        on = cache_on.read_many([ref_on] * 8)
        assert [o.content for o in off] == [o.content for o in on]

    def test_no_policy_read_many_degenerates_to_sequential(self):
        _, provider, (reference,), cache = _deployment(
            concurrency_policy=None
        )
        outcomes = cache.read_many([reference] * 8)
        assert provider.retrievals == 1  # miss then 7 sequential hits
        assert sum(o.hit for o in outcomes) == 7
        assert cache.concurrency_stats is None


class TestBailOuts:
    """Containment and budget caps override coalescing."""

    def test_open_breaker_bails_out_of_coalescing(self):
        ctx = SimContext()
        kernel = PlacelessKernel(ctx)
        owner = kernel.create_user("owner")
        provider = CountingProvider(ctx, b"contained" * 32)
        base = kernel.create_document(owner, provider, "doc")
        prop = RaisingProperty()
        base.attach(prop, acting_user=owner)
        reference = kernel.space(owner).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            concurrency_policy=DefaultConcurrencyPolicy(),
            containment_policy=DefaultContainmentPolicy(
                failure_threshold=1, probation_delay_ms=1_000_000.0
            ),
        )
        cache.read(reference)  # trips the wrapper breaker
        assert cache.containment.wrappers.open_keys()
        cache.invalidate_document(base.document_id)
        outcomes = cache.read_many([reference] * 4)
        stats = cache.concurrency_stats
        # A quarantined chain's output must not fan out: every read
        # bailed out of the flight table and fetched for itself.
        assert stats.bailed_contained == 4
        assert stats.flights_led == 0
        assert stats.follows == 0
        assert all(not o.hit for o in outcomes)
