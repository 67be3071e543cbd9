"""Unit tests for the pieces extracted from the cache monolith: the
pluggable admission/degradation policies, the instrumentation bus with
its projections, and the staged pipeline's observable behaviour when a
policy is swapped in through the ``DocumentCache`` constructor."""

from __future__ import annotations

import pytest

from repro.cache.cacheability import Cacheability
from repro.cache.instrumentation import (
    BusStatsProjection,
    InstrumentationBus,
    StageEvent,
    StageRecorder,
    StatsProjection,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    AdmissionDecision,
    AdmissionPolicy,
    DefaultDegradationPolicy,
    VoteAdmissionPolicy,
)
from repro.cache.stats import CacheStats
from repro.errors import CacheError
from repro.ids import DocumentId
from repro.placeless.document import PathMeta
from repro.providers.memory import MemoryProvider


def _meta(vote: Cacheability) -> PathMeta:
    return PathMeta(votes=[vote])


class TestVoteAdmissionPolicy:
    def test_unrestricted_content_admitted(self):
        policy = VoteAdmissionPolicy()
        decision = policy.decide(
            b"x" * 10, _meta(Cacheability.UNRESTRICTED), capacity_bytes=100
        )
        assert decision is AdmissionDecision.ADMIT

    def test_uncacheable_vote_wins_over_size(self):
        policy = VoteAdmissionPolicy()
        decision = policy.decide(
            b"x" * 1000, _meta(Cacheability.UNCACHEABLE), capacity_bytes=100
        )
        assert decision is AdmissionDecision.UNCACHEABLE

    def test_content_larger_than_whole_cache_is_oversize(self):
        policy = VoteAdmissionPolicy()
        decision = policy.decide(
            b"x" * 101, _meta(Cacheability.UNRESTRICTED), capacity_bytes=100
        )
        assert decision is AdmissionDecision.OVERSIZE

    def test_exactly_capacity_sized_content_admitted(self):
        policy = VoteAdmissionPolicy()
        decision = policy.decide(
            b"x" * 100, _meta(Cacheability.UNRESTRICTED), capacity_bytes=100
        )
        assert decision is AdmissionDecision.ADMIT

    def test_satisfies_protocol(self):
        assert isinstance(VoteAdmissionPolicy(), AdmissionPolicy)


class TestDefaultDegradationPolicy:
    def test_negative_stale_age_rejected(self):
        with pytest.raises(CacheError):
            DefaultDegradationPolicy(stale_serve_max_age_ms=-1.0)

    def test_quarantine_threshold_below_one_rejected(self):
        with pytest.raises(CacheError):
            DefaultDegradationPolicy(verifier_quarantine_threshold=0)

    def test_unbounded_stale_age_accepts_anything(self):
        policy = DefaultDegradationPolicy(serve_stale_on_error=True)
        assert policy.stale_age_acceptable(1e12)

    def test_stale_age_bound_is_inclusive(self):
        policy = DefaultDegradationPolicy(stale_serve_max_age_ms=500.0)
        assert policy.stale_age_acceptable(500.0)
        assert not policy.stale_age_acceptable(500.1)

    def test_quarantine_requires_consecutive_failures(self):
        policy = DefaultDegradationPolicy(verifier_quarantine_threshold=3)
        key = (DocumentId(1), "ThresholdVerifier")
        assert not policy.note_verifier_failure(key)
        assert not policy.note_verifier_failure(key)
        # A clean run resets the streak, so the next failure is #1 again.
        policy.note_verifier_success(key)
        assert not policy.note_verifier_failure(key)
        assert not policy.note_verifier_failure(key)
        assert policy.note_verifier_failure(key)  # newly quarantined
        assert policy.is_quarantined(key)
        # Already quarantined: further failures are not "newly".
        assert not policy.note_verifier_failure(key)

    def test_no_threshold_means_no_quarantine(self):
        policy = DefaultDegradationPolicy()
        key = (DocumentId(1), "V")
        for _ in range(100):
            policy.note_verifier_failure(key)
        assert not policy.is_quarantined(key)
        assert policy.breakers.open_keys() == set()

    def test_breaker_reset_clears_streaks_too(self):
        policy = DefaultDegradationPolicy(verifier_quarantine_threshold=1)
        a = (DocumentId(1), "A")
        b = (DocumentId(2), "B")
        policy.note_verifier_failure(a)
        policy.note_verifier_failure(b)
        assert policy.breakers.open_keys() == {a, b}
        assert policy.breakers.reset_all() == 2
        assert policy.breakers.open_keys() == set()
        # Streaks were cleared: one failure re-quarantines (threshold 1).
        assert policy.note_verifier_failure(a)

    def test_open_keys_returns_a_copy(self):
        policy = DefaultDegradationPolicy(verifier_quarantine_threshold=1)
        key = (DocumentId(1), "A")
        policy.note_verifier_failure(key)
        snapshot = policy.breakers.open_keys()
        snapshot.clear()
        assert policy.is_quarantined(key)

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("serve_stale_on_error", True),
            ("stale_serve_max_age_ms", 0.0),
            ("bypass_backing_on_error", True),
            ("verifier_quarantine_threshold", 2),
        ],
    )
    def test_policy_plus_its_own_keyword_is_refused(
        self, kernel, keyword, value
    ):
        # Used to be accepted and the keyword silently dropped.
        with pytest.raises(CacheError, match=keyword):
            DocumentCache(
                kernel,
                capacity_bytes=1 << 20,
                degradation_policy=DefaultDegradationPolicy(),
                **{keyword: value},
            )


class TestInstrumentationBus:
    def test_subscribers_run_in_subscription_order(self):
        bus = InstrumentationBus()
        order: list[str] = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit(StageEvent(stage="read", outcome="hit"))
        assert order == ["first", "second"]

    def test_unsubscribe_stops_delivery(self):
        bus = InstrumentationBus()
        seen: list[StageEvent] = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.unsubscribe(seen.append)  # absent: no-op
        bus.emit(StageEvent(stage="read", outcome="hit"))
        assert seen == []

    def test_elapsed_is_end_minus_start(self):
        event = StageEvent(
            stage="fetch", outcome="failed", started_ms=2.5, ended_ms=4.0
        )
        assert event.elapsed_ms == pytest.approx(1.5)


class TestStageRecorder:
    def test_aggregates_count_and_latency_per_cell(self):
        recorder = StageRecorder()
        recorder(StageEvent("read", "hit", started_ms=0.0, ended_ms=1.0))
        recorder(StageEvent("read", "hit", started_ms=0.0, ended_ms=3.0))
        recorder(StageEvent("read", "miss", started_ms=0.0, ended_ms=10.0))
        cell = recorder.cells[("read", "hit")]
        assert cell.count == 2
        assert cell.elapsed_ms == pytest.approx(4.0)
        assert cell.mean_ms == pytest.approx(2.0)
        assert recorder.cells[("read", "miss")].count == 1

    def test_rows_follow_canonical_stage_order(self):
        recorder = StageRecorder()
        recorder(StageEvent("eviction", "evicted"))
        recorder(StageEvent("read", "miss"))
        recorder(StageEvent("unknown-stage", "x"))
        stages = [row[0] for row in recorder.rows()]
        assert stages == ["read", "eviction", "unknown-stage"]

    def test_merge_folds_cells(self):
        left, right = StageRecorder(), StageRecorder()
        left(StageEvent("read", "hit", started_ms=0.0, ended_ms=1.0))
        right(StageEvent("read", "hit", started_ms=0.0, ended_ms=2.0))
        right(StageEvent("flush", "flushed"))
        left.merge(right)
        assert left.cells[("read", "hit")].count == 2
        assert left.cells[("read", "hit")].elapsed_ms == pytest.approx(3.0)
        assert left.cells[("flush", "flushed")].count == 1

    def test_render_empty_recorder(self):
        text = StageRecorder().render(title="empty")
        assert "empty" in text and "(no events recorded)" in text

    def test_render_contains_every_cell(self):
        recorder = StageRecorder()
        recorder(StageEvent("read", "stale-on-error"))
        assert "stale-on-error" in recorder.render()


class TestStatsProjection:
    def _project(self, *events: StageEvent) -> CacheStats:
        stats = CacheStats()
        projection = StatsProjection(stats)
        for event in events:
            projection(event)
        return stats

    def test_terminal_read_hit_vs_miss(self):
        stats = self._project(
            StageEvent("read", "hit", started_ms=0.0, ended_ms=1.0,
                       payload={"bytes": 11}),
            StageEvent("read", "revalidated", started_ms=0.0, ended_ms=2.0,
                       payload={"bytes": 5}),
            StageEvent("read", "miss", started_ms=0.0, ended_ms=40.0),
            StageEvent("read", "stale-on-error", started_ms=0.0, ended_ms=8.0),
        )
        assert stats.hits == 2 and stats.misses == 2
        assert stats.hit_latency_ms == pytest.approx(3.0)
        assert stats.miss_latency_ms == pytest.approx(48.0)
        assert stats.bytes_served_from_cache == 16

    def test_fetch_retry_accumulates_delay(self):
        stats = self._project(
            StageEvent("fetch", "retry", payload={"delay_ms": 100.0}),
            StageEvent("fetch", "retry", payload={"delay_ms": 200.0}),
            StageEvent("fetch", "failed"),
        )
        assert stats.retries == 2
        assert stats.retry_delay_ms == pytest.approx(300.0)
        assert stats.fetch_failures == 1

    def test_degradation_outcomes(self):
        stats = self._project(
            StageEvent("degradation", "bypassed"),
            StageEvent("degradation", "stale-served"),
            StageEvent("degradation", "stale-rejected"),
        )
        assert stats.backing_bypasses == 1
        assert stats.stale_served_on_error == 1
        assert stats.stale_serve_rejected == 1
        assert stats.degraded_serves == 2

    def test_unknown_stage_is_ignored(self):
        stats = self._project(StageEvent("no-such-stage", "whatever"))
        assert stats == CacheStats()


class TestBusStatsProjection:
    def test_only_bus_events_counted(self):
        class Stats:
            deliveries = 0
            delivery_cost_ms = 0.0
            dropped = 0
            lost = 0
            delayed = 0
            delay_ms_total = 0.0

        stats = Stats()
        projection = BusStatsProjection(stats)
        projection(StageEvent("bus", "delivered", payload={"cost_ms": 2.0}))
        projection(StageEvent("bus", "lost"))
        projection(StageEvent("bus", "delayed", payload={"delay_ms": 50.0}))
        projection(StageEvent("bus", "dropped"))
        projection(StageEvent("read", "hit"))  # not a bus event
        assert stats.deliveries == 1
        assert stats.delivery_cost_ms == pytest.approx(2.0)
        assert stats.lost == 1 and stats.dropped == 1
        assert stats.delayed == 1
        assert stats.delay_ms_total == pytest.approx(50.0)


class _RejectEverything:
    """Admission policy stub: nothing may enter the cache."""

    def decide(self, content, meta, capacity_bytes):
        return AdmissionDecision.UNCACHEABLE


class TestPolicyInjection:
    """Swapping a policy through the constructor changes stage behaviour."""

    @pytest.fixture
    def reference(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"pipeline bytes")
        base = kernel.create_document(user, provider, "doc")
        return kernel.space(user).add_reference(base)

    def test_custom_admission_policy_blocks_fills(self, kernel, reference):
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            admission_policy=_RejectEverything(),
        )
        for _ in range(3):
            outcome = cache.read(reference)
            assert not outcome.hit
            assert outcome.disposition == "uncacheable"
        assert len(cache) == 0
        assert cache.stats.uncacheable_reads == 3
        breakdown = cache.stage_breakdown()
        assert breakdown.cells[("admission", "uncacheable")].count == 3
        assert ("admission", "filled") not in breakdown.cells

    def test_custom_degradation_policy_is_exposed(self, kernel, reference):
        policy = DefaultDegradationPolicy(
            serve_stale_on_error=True, verifier_quarantine_threshold=2
        )
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, degradation_policy=policy
        )
        assert cache.degradation_policy is policy
        assert cache.serve_stale_on_error is True
        assert cache.verifier_quarantine_threshold == 2

    def test_breakdown_records_hit_and_miss_reads(self, kernel, reference):
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        cache.read(reference)
        cells = cache.stage_breakdown().cells
        assert cells[("read", "miss")].count == 1
        assert cells[("read", "hit")].count == 1
        assert cells[("admission", "filled")].count == 1
        # Virtual time: the one hit is far cheaper than the one miss.
        assert cells[("read", "hit")].mean_ms < cells[("read", "miss")].mean_ms

    def test_shared_instrumentation_bus_observes_cache(self, kernel,
                                                       reference):
        instrumentation = InstrumentationBus()
        recorder = StageRecorder()
        instrumentation.subscribe(recorder)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, instrumentation=instrumentation
        )
        cache.read(reference)
        assert recorder.cells[("read", "miss")].count == 1
        assert cache.stats.misses == 1
