"""Unit tests for the containment layer.

Covers the circuit-breaker state machine and registry, execution
budgets, the guard's per-role fallbacks at the stream-wrapper seam
(skip / force-miss / deny), the stream firewalls and the byte cap under
the kernel's whole read, the notifier firewall, the deprecated
quarantine bridge, and the off-by-default guarantee that
:class:`~repro.cache.stats.CacheStats` gains no fields.
"""

from __future__ import annotations

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.cache.containment import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
    ExecutionBudget,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultContainmentPolicy
from repro.cache.stats import CacheStats
from repro.errors import (
    BudgetExceededError,
    CacheError,
    CircuitOpenError,
    StreamError,
)
from repro.events.types import EventType
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext
from repro.streams.base import InputStream
from repro.streams.chain import drain


class RaisingProperty(ActiveProperty):
    """A property whose stream wrapper blows up (until told to behave)."""

    execution_cost_ms = 0.1

    def __init__(self, name="bad-prop", required=False):
        super().__init__(name)
        self.transforms_reads = required
        self.misbehave = True
        self.wrap_calls = 0

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def wrap_input(self, stream, event):
        self.wrap_calls += 1
        if self.misbehave:
            raise RuntimeError("property exploded")
        return stream


class ExpensiveProperty(ActiveProperty):
    """An honestly-declared expensive property (budget fodder)."""

    execution_cost_ms = 50.0

    def __init__(self, name="expensive"):
        super().__init__(name)

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}


class MidStreamFailureProperty(ActiveProperty):
    """Wraps cleanly, then fails once *healthy_bytes* have been read."""

    execution_cost_ms = 0.1

    def __init__(self, healthy_bytes=4, name="flaky-stream"):
        super().__init__(name)
        self.healthy_bytes = healthy_bytes
        self.misbehave = True

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def wrap_input(self, stream, event):
        return _FailingAfter(stream, self) if self.misbehave else stream


class EndlessProperty(ActiveProperty):
    """A runaway transformer: its stream never reaches end of stream."""

    execution_cost_ms = 0.1

    def __init__(self, name="endless"):
        super().__init__(name)
        self.bytes_produced = 0

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def wrap_input(self, stream, event):
        return _Endless(stream, self)


class _Endless(InputStream):
    def __init__(self, inner, prop):
        super().__init__()
        self._inner = inner
        self._prop = prop

    def _read_chunk(self, size):
        self._prop.bytes_produced += size
        return b"x" * size

    def _on_close(self):
        self._inner.close()


class _FailingAfter(InputStream):
    def __init__(self, inner, prop):
        super().__init__()
        self._inner = inner
        self._left = prop.healthy_bytes

    def _read_chunk(self, size):
        if self._left <= 0:
            raise StreamError("transformer broke mid-stream")
        chunk = self._inner.read(min(size, self._left))
        self._left -= len(chunk)
        return chunk

    def _on_close(self):
        self._inner.close()


def _deployment(policy, prop=None, content=b"hello world"):
    ctx = SimContext()
    kernel = PlacelessKernel(ctx)
    user = kernel.create_user("u")
    provider = MemoryProvider(ctx, content)
    reference = kernel.import_document(user, provider, "doc")
    if prop is not None:
        reference.base.attach(prop, acting_user=user)
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, containment_policy=policy
    )
    return kernel, cache, reference


class TestCircuitBreaker:
    def test_initially_closed_and_allowing(self):
        breaker = CircuitBreaker(BreakerConfig())
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        assert not breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)
        assert breaker.record_failure(3.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(3.5)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        assert not breaker.record_failure(3.0)
        assert breaker.state is BreakerState.CLOSED

    def test_probation_admits_a_probe(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, probation_delay_ms=100.0)
        )
        breaker.record_failure(0.0)
        assert not breaker.allow(50.0)
        assert breaker.allow(100.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_successes_close_the_circuit(self):
        breaker = CircuitBreaker(
            BreakerConfig(
                failure_threshold=1,
                probation_delay_ms=100.0,
                half_open_successes=2,
            )
        )
        breaker.record_failure(0.0)
        breaker.allow(100.0)
        assert not breaker.record_success(101.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.record_success(102.0)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens_immediately(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=3, probation_delay_ms=100.0)
        )
        for _ in range(3):
            breaker.record_failure(0.0)
        breaker.allow(100.0)
        assert breaker.record_failure(101.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(150.0)
        assert breaker.allow(201.0)

    def test_none_probation_is_permanently_open(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, probation_delay_ms=None)
        )
        breaker.record_failure(0.0)
        assert not breaker.allow(1e12)

    def test_config_validation(self):
        with pytest.raises(CacheError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(CacheError):
            BreakerConfig(probation_delay_ms=-1.0)
        with pytest.raises(CacheError):
            BreakerConfig(half_open_successes=0)


class TestBreakerRegistry:
    def test_lazily_creates_and_reuses(self):
        registry = BreakerRegistry(BreakerConfig())
        key = ("doc", "stream:x")
        assert registry.peek(key) is None
        breaker = registry.get(key)
        assert registry.get(key) is breaker
        assert len(registry) == 1

    def test_open_keys_and_reset(self):
        registry = BreakerRegistry(BreakerConfig(failure_threshold=1))
        registry.get(("d1", "s")).record_failure()
        registry.get(("d2", "s"))
        assert registry.open_keys() == {("d1", "s")}
        assert registry.reset_all() == 1
        assert len(registry) == 0


class TestExecutionBudget:
    def test_cost_cap(self):
        budget = ExecutionBudget(max_cost_ms=5.0)
        budget.check_cost(5.0, "site")
        with pytest.raises(BudgetExceededError):
            budget.check_cost(5.1, "site")

    def test_uncapped_budget_allows_anything(self):
        ExecutionBudget().check_cost(1e9, "site")

    def test_validation(self):
        with pytest.raises(CacheError):
            ExecutionBudget(max_cost_ms=0.0)
        with pytest.raises(CacheError):
            ExecutionBudget(max_bytes=0)


class TestWrapperSeamFallbacks:
    def test_optional_raise_is_skipped_and_served_degraded(self):
        prop = RaisingProperty(required=False)
        _, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1), prop
        )
        outcome = cache.read(reference)
        assert outcome.content == b"hello world"
        assert outcome.degraded
        stats = cache.containment_stats
        assert stats.failures_contained == 1
        assert stats.optional_skips == 1
        assert stats.trips == 1

    def test_required_raise_forces_miss_and_is_never_admitted(self):
        prop = RaisingProperty(required=True)
        _, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1), prop
        )
        first = cache.read(reference)
        assert first.degraded and not first.hit
        assert len(cache) == 0  # untransformed result never admitted
        second = cache.read(reference)
        assert not second.hit
        assert cache.containment_stats.forced_misses >= 2

    def test_open_breaker_skips_without_running_the_code(self):
        prop = RaisingProperty(required=False)
        _, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1), prop
        )
        cache.read(reference)
        calls_after_trip = prop.wrap_calls
        # The skip fallback keeps the (degraded) result admissible, so
        # force misses by invalidating between reads.
        cache.invalidate_document(reference.document_id)
        cache.read(reference)
        assert prop.wrap_calls == calls_after_trip

    def test_deny_raises_typed_error(self):
        prop = RaisingProperty(required=True)
        _, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1, deny_required=True),
            prop,
        )
        with pytest.raises(CircuitOpenError):
            cache.read(reference)

    def test_probation_probe_recovers_a_fixed_property(self):
        prop = RaisingProperty(required=False)
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(
                failure_threshold=1,
                probation_delay_ms=500.0,
                half_open_successes=1,
            ),
            prop,
        )
        cache.read(reference)  # trips
        guard = cache.containment
        assert guard.wrappers.open_keys()
        prop.misbehave = False
        kernel.ctx.clock.advance(600.0)
        cache.invalidate_document(reference.document_id)
        outcome = cache.read(reference)  # half-open probe succeeds
        assert not outcome.degraded
        assert not guard.wrappers.open_keys()
        assert cache.containment_stats.probes == 1
        assert cache.containment_stats.closes == 1

    def test_budget_overrun_aborts_and_charges_the_cap(self):
        prop = ExpensiveProperty()
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=3, max_cost_ms=5.0),
            prop,
        )
        before = kernel.ctx.clock.now_ms
        outcome = cache.read(reference)
        assert outcome.degraded
        stats = cache.containment_stats
        assert stats.budget_overruns == 1
        # The access paid the 5 ms cap, not the 50 ms runaway cost.
        assert kernel.ctx.clock.now_ms - before < 50.0


class TestStreamSeamUnderTheWholeRead:
    """``kernel.read`` issues one ``read(-1)``; the firewalls forward
    it inward and report as they do under a chunked drain, the byte
    cap answers it in 64 KiB chunks so that it still bounds the work."""

    def test_byte_cap_trips_on_the_running_total(self):
        content = b"the cache " * 50
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1, max_bytes=100),
            TranslationProperty(),
            content,
        )
        with pytest.raises(BudgetExceededError):
            kernel.read(reference)
        stats = cache.containment_stats
        assert stats.budget_overruns == 1
        assert stats.escapes == 0
        assert stats.trips == 1
        assert cache.containment.wrappers.open_keys()

    def test_byte_cap_passes_a_stream_within_budget(self):
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1, max_bytes=100),
            TranslationProperty(),
            b"the cache",
        )
        assert kernel.read(reference).content == b"le cache"
        assert cache.containment_stats.total == 0
        assert not cache.containment.wrappers.open_keys()

    def test_byte_cap_counts_what_the_property_emits(self):
        # 96 source bytes, 144 translated ones: the cap is on the
        # property's output, whichever way it is pulled.
        content = b"a " * 48
        for pull in (
            lambda kernel, reference: kernel.read(reference),
            lambda kernel, reference: drain(reference.open_input().stream, 16),
        ):
            kernel, cache, reference = _deployment(
                DefaultContainmentPolicy(max_bytes=100),
                TranslationProperty(),
                content,
            )
            with pytest.raises(BudgetExceededError):
                pull(kernel, reference)
            assert cache.containment_stats.budget_overruns == 1

    def test_byte_cap_stops_an_endless_stream_within_one_chunk(self):
        # The cap bounds the work, not just the result: a whole read
        # forwarded through it would never come back from this stream.
        prop = EndlessProperty()
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1, max_bytes=1000),
            prop,
        )
        with pytest.raises(BudgetExceededError):
            kernel.read(reference)
        assert prop.bytes_produced <= 1000 + 65536
        assert cache.containment_stats.budget_overruns == 1
        assert cache.containment.wrappers.open_keys()

    def test_mid_stream_failure_is_reported_once_and_trips_the_breaker(self):
        prop = MidStreamFailureProperty()
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1), prop
        )
        with pytest.raises(StreamError):
            kernel.read(reference)
        stats = cache.containment_stats
        assert stats.escapes == 1
        assert stats.trips == 1
        # The open breaker now skips the property without running it.
        outcome = kernel.read(reference)
        assert outcome.content == b"hello world"
        assert outcome.meta.contained_skips == 1
        assert stats.escapes == 1

    def test_clean_whole_read_closes_a_half_open_breaker(self):
        prop = MidStreamFailureProperty()
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(
                failure_threshold=1,
                probation_delay_ms=500.0,
                half_open_successes=1,
            ),
            prop,
        )
        with pytest.raises(StreamError):
            kernel.read(reference)
        prop.misbehave = False
        kernel.ctx.clock.advance(600.0)
        assert kernel.read(reference).content == b"hello world"
        stats = cache.containment_stats
        assert stats.probes == 1
        # End of stream was reported exactly once: one close, and the
        # next read finds a closed breaker (no further probe).
        assert stats.closes == 1
        assert not cache.containment.wrappers.open_keys()
        kernel.read(reference)
        assert (stats.probes, stats.closes) == (1, 1)

    def test_stacked_firewalls_each_report_their_own_stream(self):
        inner_prop = TranslationProperty(name="inner")
        outer_prop = MidStreamFailureProperty(name="outer")
        kernel, cache, reference = _deployment(
            DefaultContainmentPolicy(failure_threshold=1), inner_prop
        )
        reference.attach(outer_prop)
        with pytest.raises(StreamError):
            kernel.read(reference)
        open_sites = {site for _, site in cache.containment.wrappers.open_keys()}
        assert open_sites == {"stream:outer"}
        assert cache.containment_stats.escapes == 1


class TestNotifierFirewall:
    def _guard(self):
        _, cache, _ = _deployment(
            DefaultContainmentPolicy(failure_threshold=2)
        )
        return cache.containment

    def test_raising_notifier_is_contained(self):
        guard = self._guard()
        prop = SimpleNamespace(name="n1")
        event = SimpleNamespace(document_id="doc")

        def boom(_event):
            raise RuntimeError("notifier exploded")

        assert guard.run_notifier(prop, event, boom) is None
        assert guard.stats.failures_contained == 1

    def test_open_breaker_suppresses_the_callback(self):
        guard = self._guard()
        prop = SimpleNamespace(name="n1")
        event = SimpleNamespace(document_id="doc")
        calls = []

        def boom(_event):
            raise RuntimeError("notifier exploded")

        guard.run_notifier(prop, event, boom)
        guard.run_notifier(prop, event, boom)  # trips (threshold 2)
        guard.run_notifier(prop, event, lambda e: calls.append(e))
        assert not calls
        assert guard.stats.notifier_suppressed == 1

    def test_successful_notifier_passes_result_through(self):
        guard = self._guard()
        prop = SimpleNamespace(name="n2")
        event = SimpleNamespace(document_id="doc")
        assert guard.run_notifier(prop, event, lambda e: "sent") == "sent"


class TestQuarantineOwnedByBreakers:
    def test_deprecated_bridge_is_gone(self):
        _, cache, _ = _deployment(None)
        assert not hasattr(cache, "quarantined_verifier_keys")
        assert not hasattr(cache, "lift_quarantines")

    def test_breaker_registry_owns_quarantine(self):
        _, cache, _ = _deployment(DefaultContainmentPolicy())
        guard = cache.containment
        key = ("doc", "TTLVerifier")
        breaker = guard.verifiers.get(key)
        for _ in range(guard.verifiers.config.failure_threshold):
            breaker.record_failure()
        assert key in guard.verifiers.open_keys()
        assert guard.verifiers.reset_all() == 1
        assert not guard.verifiers.open_keys()


class TestOffByDefaultGuarantee:
    def test_cache_without_policy_builds_no_guard(self):
        _, cache, reference = _deployment(None)
        assert cache.containment is None
        assert cache.containment_stats is None
        assert cache.read(reference).content == b"hello world"

    def test_cache_stats_gains_no_fields(self):
        # Containment counters live in ContainmentStats only; the shape
        # of CacheStats is pinned so the golden digests stay valid.
        assert {f.name for f in fields(CacheStats)} == {
            "hits", "misses", "uncacheable_reads",
            "verifier_invalidations", "verifier_revalidations",
            "verifier_executions", "verifier_cost_ms",
            "notifier_deliveries", "forwarded_reads", "forwarded_writes",
            "evictions", "writes_through", "writes_backed", "flushes",
            "prefetch_requests", "prefetch_fills", "prefetched_hits",
            "stale_served_on_error",
            "stale_serve_rejected", "retries", "retry_delay_ms",
            "fetch_failures",
            "quarantined_verifiers", "quarantine_forced_misses",
            "dropped_notifier_detected", "flush_failures",
            "bytes_served_from_cache", "bytes_filled", "hit_latency_ms",
            "miss_latency_ms", "stale_hits", "invalidations",
        }
