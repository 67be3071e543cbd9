"""Property tests: fault injection never corrupts cache bookkeeping.

Whatever interleaving of reads, writes, outage toggles and clock
advances the fault plan throws at the cache, two invariants must hold:
the content store's refcounts exactly mirror the live entries, and the
physically stored bytes never exceed ``capacity_bytes``.  Each run
draws whether the cache is contained: its verifiers answer to the one
quarantine either way.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cache.manager import DocumentCache
from repro.cache.policies import ContainmentPolicy, DegradationPolicy
from repro.errors import ProviderError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider

# The repair rule lifts quarantines through the deprecated manager
# bridge on purpose — it must keep working until the bridge is removed.
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

N_DOCS = 4
N_USERS = 2
doc_indices = st.integers(min_value=0, max_value=N_DOCS - 1)
user_indices = st.integers(min_value=0, max_value=N_USERS - 1)
contents = st.binary(min_size=0, max_size=128)
containment_policies = st.sampled_from([None, ContainmentPolicy()])


def _build_deployment(
    capacity_bytes: int, containment_policy: ContainmentPolicy | None = None
):
    kernel = PlacelessKernel()
    users = [kernel.create_user(f"user{i}") for i in range(N_USERS)]
    providers = []
    bases = []
    for index in range(N_DOCS):
        provider = MemoryProvider(
            kernel.ctx, f"doc-{index} initial content".encode()
        )
        providers.append(provider)
        bases.append(kernel.create_document(users[0], provider, f"d{index}"))
    refs = [
        [kernel.space(user).add_reference(base) for base in bases]
        for user in users
    ]
    cache = DocumentCache(
        kernel, capacity_bytes=capacity_bytes,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_ms=5.0),
        degradation_policy=DegradationPolicy(
            serve_stale_on_error=True, verifier_quarantine_threshold=3
        ),
        containment_policy=containment_policy,
    )
    return kernel, users, providers, refs, cache


def _assert_bookkeeping(cache: DocumentCache) -> None:
    """Refcounts mirror live entries; physical bytes fit the capacity."""
    by_signature: dict = {}
    for entry in cache.entries():
        by_signature[entry.signature] = by_signature.get(entry.signature, 0) + 1
    assert len(cache.store) == len(by_signature)
    for signature, count in by_signature.items():
        assert cache.store.refcount(signature) == count
    assert cache.used_bytes <= cache.capacity_bytes
    assert cache.store.physical_bytes == cache.used_bytes


class FaultedCacheMachine(RuleBasedStateMachine):
    """Random ops under a togglable fault plan; bookkeeping must hold."""

    @initialize(
        seed=st.integers(min_value=0, max_value=2**16),
        containment_policy=containment_policies,
    )
    def setup(self, seed, containment_policy):
        (
            self.kernel, self.users, self.providers, self.refs, self.cache
        ) = _build_deployment(300, containment_policy)
        self._healthy_plan = None
        self._faulty_plan = FaultPlan(
            self.kernel.ctx.clock,
            seed=seed,
            fetch_failure_probability=0.5,
            notifier_loss_probability=0.3,
            verifier_failure_probability=0.2,
        )
        self.serial = 0

    @rule(user=user_indices, doc=doc_indices)
    def read(self, user, doc):
        try:
            self.cache.read(self.refs[user][doc])
        except ProviderError:
            pass  # injected failure past every degradation mode

    @rule(doc=doc_indices, content=contents)
    def write(self, doc, content):
        try:
            self.kernel.write(self.refs[0][doc], content)
        except ProviderError:
            pass

    @rule(doc=doc_indices, content=contents)
    def out_of_band_update(self, doc, content):
        self.providers[doc].mutate_out_of_band(content)

    @rule(ms=st.floats(min_value=1.0, max_value=5_000.0))
    def advance(self, ms):
        self.kernel.ctx.clock.advance(ms)

    @rule()
    def break_the_world(self):
        self.kernel.ctx.faults = self._faulty_plan

    @rule()
    def repair_the_world(self):
        self.kernel.ctx.faults = self._healthy_plan
        self.cache.core.quarantine.reset_all()

    @invariant()
    def bookkeeping_holds(self):
        _assert_bookkeeping(self.cache)


FaultedCacheMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestFaultedCacheMachine = FaultedCacheMachine.TestCase


class TestFaultedReadSequences:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        operations=st.lists(
            st.tuples(user_indices, doc_indices), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_flaky_fetches_never_corrupt_the_store(self, seed, operations):
        kernel, _, _, refs, cache = _build_deployment(capacity_bytes=250)
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, seed=seed, fetch_failure_probability=0.5
        )
        failures = 0
        for user, doc in operations:
            try:
                cache.read(refs[user][doc])
            except ProviderError:
                failures += 1
            kernel.ctx.clock.advance(10.0)
            _assert_bookkeeping(cache)
        # Bookkeeping survived; and the counters add up.
        assert cache.stats.fetch_failures >= failures

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        containment_policy=containment_policies,
    )
    @settings(max_examples=20, deadline=None)
    def test_recovery_restores_transparency(self, seed, containment_policy):
        kernel, _, _, refs, cache = _build_deployment(400, containment_policy)
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, seed=seed,
            fetch_failure_probability=0.6,
            verifier_failure_probability=0.3,
        )
        for user in range(N_USERS):
            for doc in range(N_DOCS):
                try:
                    cache.read(refs[user][doc])
                except ProviderError:
                    pass
        kernel.ctx.faults = None
        cache.core.quarantine.reset_all()
        for user in range(N_USERS):
            for doc in range(N_DOCS):
                assert (
                    cache.read(refs[user][doc]).content
                    == kernel.read(refs[user][doc]).content
                )
        _assert_bookkeeping(cache)
