"""Graceful degradation: stale serves, quarantine, recovery."""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import DegradationPolicy
from repro.errors import RepositoryOfflineError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.retry import RetryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

TTL_MS = 1_000.0


def _deployment(**cache_kwargs):
    """One TTL-verified document behind a cache; returns all the pieces."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner,
        # All-web mix: the document carries a TTL verifier, so advancing
        # the clock past TTL_MS makes the next hit refetch.
        CorpusSpec(
            n_documents=1, ttl_ms=TTL_MS, seed=3,
            repository_mix=(("parcweb", 1.0),),
        ),
    )
    population = build_population(
        kernel, corpus, n_users=1, personalized_fraction=0.0, seed=3
    )
    cache_kwargs.setdefault("capacity_bytes", 1 << 20)
    cache = DocumentCache(kernel, **cache_kwargs)
    return kernel, corpus, population.references[0][0], cache


def _expire_and_break(kernel) -> None:
    """Advance past the TTL, then take the whole world offline."""
    kernel.ctx.clock.advance(TTL_MS * 2)
    kernel.ctx.faults = FaultPlan(
        kernel.ctx.clock, outages=(OutageWindow(0.0, float("inf")),)
    )


class TestServeStaleOnError:
    def test_stale_bytes_served_and_counted(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(serve_stale_on_error=True)
        )
        first = cache.read(reference)
        _expire_and_break(kernel)
        outcome = cache.read(reference)
        assert outcome.disposition == "stale-on-error"
        assert outcome.degraded and not outcome.hit
        assert outcome.content == first.content  # the stale bytes
        assert cache.stats.stale_served_on_error == 1
        assert cache.stats.fetch_failures == 1

    def test_disabled_by_default_the_read_fails(self):
        kernel, _, reference, cache = _deployment()
        cache.read(reference)
        _expire_and_break(kernel)
        with pytest.raises(RepositoryOfflineError):
            cache.read(reference)
        assert cache.stats.stale_served_on_error == 0

    def test_staleness_bound_honored(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(
                serve_stale_on_error=True,
                stale_serve_max_age_ms=TTL_MS,  # entry will be 2×TTL old
            ),
        )
        cache.read(reference)
        _expire_and_break(kernel)
        with pytest.raises(RepositoryOfflineError):
            cache.read(reference)
        assert cache.stats.stale_serve_rejected == 1
        assert cache.stats.stale_served_on_error == 0

    def test_bound_admits_young_enough_stale_bytes(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(
                serve_stale_on_error=True,
                stale_serve_max_age_ms=TTL_MS * 10,
            ),
        )
        cache.read(reference)
        _expire_and_break(kernel)
        assert cache.read(reference).disposition == "stale-on-error"
        assert cache.stats.stale_serve_rejected == 0


# Quarantine is a breaker configuration: inspect and reset it through
# the degradation policy's breaker registry.
class TestVerifierQuarantine:
    def test_repeated_failures_quarantine_then_force_misses(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(
                verifier_quarantine_threshold=2
            ),
        )
        cache.read(reference)  # fill
        # Every verifier execution now raises.
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, verifier_failure_probability=1.0
        )
        cache.read(reference)  # failure 1 → conservative miss, refill
        assert cache.stats.quarantined_verifiers == 0
        cache.read(reference)  # failure 2 → quarantined
        assert cache.stats.quarantined_verifiers == 1
        assert cache.core.quarantine.open_keys()
        before = cache.stats.quarantine_forced_misses
        outcome = cache.read(reference)  # no verifier runs: forced miss
        assert not outcome.hit
        assert cache.stats.quarantine_forced_misses == before + 1

    def test_breaker_reset_restores_verification(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(
                verifier_quarantine_threshold=1
            ),
        )
        cache.read(reference)
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, verifier_failure_probability=1.0
        )
        cache.read(reference)
        breakers = cache.core.quarantine
        assert breakers.open_keys()
        # The verifier fault is repaired; lift the quarantine.
        kernel.ctx.faults = None
        assert breakers.reset_all() == 1
        assert not breakers.open_keys()
        cache.read(reference)  # refill under working verifiers
        assert cache.read(reference).hit  # verified hit again

    def test_success_resets_the_failure_count(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(
                verifier_quarantine_threshold=2
            ),
        )
        cache.read(reference)
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, verifier_failure_probability=1.0
        )
        cache.read(reference)  # failure 1 of 2
        kernel.ctx.faults = None
        assert cache.read(reference).hit  # success clears the count
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, verifier_failure_probability=1.0
        )
        cache.read(reference)  # failure 1 again — not a quarantine
        assert cache.stats.quarantined_verifiers == 0

    def test_caches_sharing_one_policy_keep_separate_quarantines(self):
        """One policy object configures many caches (every shard of a
        cluster gets the same ``shard_kwargs``); a verifier raising in
        one must not quarantine it in the others."""
        policy = DegradationPolicy(verifier_quarantine_threshold=1)
        kernel, _, reference, first = _deployment(degradation_policy=policy)
        second = DocumentCache(
            kernel, capacity_bytes=1 << 20, degradation_policy=policy,
            name="second",
        )
        first.read(reference)
        second.read(reference)
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, verifier_failure_probability=1.0
        )
        first.read(reference)  # raises in `first` only → quarantined there
        kernel.ctx.faults = None
        assert first.stats.quarantined_verifiers == 1
        assert first.core.quarantine.open_keys()
        assert not second.core.quarantine.open_keys()
        assert second.read(reference).hit  # verified, not a forced miss
        assert second.stats.quarantine_forced_misses == 0
        # Lifting one cache's quarantine is that cache's business only.
        second.core.quarantine.reset_all()
        assert first.core.quarantine.open_keys()


class TestOutageRecovery:
    def test_transparency_restored_after_the_window(self):
        kernel, _, reference, cache = _deployment(
            degradation_policy=DegradationPolicy(serve_stale_on_error=True),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_ms=10.0),
        )
        cache.read(reference)
        kernel.ctx.clock.advance(TTL_MS * 2)
        outage_end = kernel.ctx.clock.now_ms + 5_000.0
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock, outages=(OutageWindow(0.0, outage_end),)
        )
        # During the outage: bounded stale serves keep the reads answered.
        assert cache.read(reference).disposition == "stale-on-error"
        # After the window: fresh fill, then verified hits — and the
        # cache is transparent against the kernel again.
        kernel.ctx.clock.advance(outage_end + 1.0)
        refreshed = cache.read(reference)
        assert refreshed.disposition == "miss"
        assert not refreshed.degraded
        assert cache.read(reference).hit
        assert cache.read(reference).content == kernel.read(reference).content
