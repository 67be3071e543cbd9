"""Unit tests for deadline budgets, admission control and retry caps."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ContentUnavailableError,
    DeadlineExceededError,
    WorkloadError,
)
from repro.faults.retry import RetryPolicy
from repro.overload.admission import (
    PRIORITY_BULK,
    PRIORITY_CRITICAL,
    PRIORITY_QOS,
    AdmissionController,
)
from repro.overload import admission as admission_module
from repro.overload.budget import DeadlineBudget
from repro.sim.clock import VirtualClock
from repro.sim.context import SimContext


class TestDeadlineBudget:
    def test_remaining_draws_down_with_the_clock(self):
        clock = VirtualClock()
        budget = DeadlineBudget(clock, 100.0)
        assert budget.remaining_ms == 100.0
        clock.advance(30.0)
        assert budget.remaining_ms == 70.0
        assert not budget.expired
        clock.advance(80.0)
        assert budget.remaining_ms == 0.0
        assert budget.expired

    def test_expires_only_at_the_deadline(self):
        clock = VirtualClock()
        budget = DeadlineBudget(clock, 10.0)
        clock.advance(9.0)
        assert not budget.expired
        clock.advance(1.0)
        assert budget.expired
        error = budget.exceeded("fetch")
        assert isinstance(error, DeadlineExceededError)
        assert "fetch" in str(error)

    def test_back_dated_start_counts_queueing_delay(self):
        clock = VirtualClock()
        clock.advance(500.0)
        budget = DeadlineBudget(clock, 100.0, started_ms=450.0)
        assert budget.remaining_ms == 50.0
        assert budget.elapsed_ms == 50.0

    def test_future_start_and_zero_budget_rejected(self):
        clock = VirtualClock()
        with pytest.raises(WorkloadError):
            DeadlineBudget(clock, 100.0, started_ms=1.0)
        with pytest.raises(WorkloadError):
            DeadlineBudget(clock, 0.0)

    def test_infinite_budget_never_expires(self):
        clock = VirtualClock()
        budget = DeadlineBudget(clock, float("inf"))
        clock.advance(1e12)
        assert not budget.expired

    @given(
        budget_ms=st.floats(min_value=1.0, max_value=1e6),
        charges=st.lists(
            st.floats(min_value=0.0, max_value=1e4), max_size=30
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_remaining_is_monotone_nonincreasing(self, budget_ms, charges):
        """However the clock advances, remaining only ever shrinks and
        an expired budget stays expired."""
        clock = VirtualClock()
        budget = DeadlineBudget(clock, budget_ms)
        previous = budget.remaining_ms
        was_expired = budget.expired
        for charge in charges:
            clock.advance(charge)
            assert budget.remaining_ms <= previous
            assert budget.remaining_ms >= 0.0
            if was_expired:
                assert budget.expired
            previous = budget.remaining_ms
            was_expired = budget.expired


class TestAdmissionController:
    @pytest.fixture(autouse=True)
    def small_bucket(self, monkeypatch):
        """A bucket small enough to drain by hand: the controller reads
        its three limits from module constants at decision time."""
        monkeypatch.setattr(admission_module, "ADMISSION_BURST", 4.0)
        monkeypatch.setattr(admission_module, "QUEUE_LIMIT", 4.0)
        monkeypatch.setattr(admission_module, "SOJOURN_THRESHOLD_MS", 50.0)

    def _controller(self, rate_per_s=100.0):
        clock = VirtualClock()
        return clock, AdmissionController(clock, rate_per_s=rate_per_s)

    def test_burst_admits_then_queue_full_sheds_bulk(self):
        clock, admission = self._controller()
        decisions = [admission.admit(PRIORITY_BULK) for _ in range(12)]
        admitted = [d for d in decisions if d.admitted]
        shed = [d for d in decisions if not d.admitted]
        # 4 burst tokens + 4 of overdraft headroom, then queue-full.
        assert len(admitted) == 8
        assert shed and all(d.reason == "queue-full" for d in shed)

    def test_critical_is_never_shed(self):
        clock, admission = self._controller()
        for _ in range(50):
            assert admission.admit(PRIORITY_CRITICAL).admitted

    def test_sojourn_sheds_bulk_before_qos(self):
        # Refill must stay negligible over the waiting window, or the
        # bucket recovers and the sojourn gate never becomes live.
        clock, admission = self._controller(rate_per_s=1.0)
        # Drain the bucket so the sojourn gate becomes live.
        while admission.tokens >= 1.0:
            admission.admit(PRIORITY_BULK)
        enqueued = clock.now_ms
        clock.advance(60.0)  # sojourn 60ms: over bulk's 50, under QoS's 100
        bulk = admission.admit(PRIORITY_BULK, enqueued_ms=enqueued)
        qos = admission.admit(PRIORITY_QOS, enqueued_ms=enqueued)
        assert not bulk.admitted and bulk.reason == "sojourn"
        assert qos.admitted

    def test_tokens_refill_from_the_virtual_clock(self):
        clock, admission = self._controller()
        while admission.tokens >= 1.0:
            admission.admit(PRIORITY_BULK)
        clock.advance(1_000.0)  # a full second at 100/s, capped at burst
        assert admission.tokens == 4.0
        assert admission.admit(PRIORITY_BULK).admitted


class TestRetryBudgetCap:
    def test_retry_gives_up_when_backoff_exceeds_budget(self):
        ctx = SimContext()
        policy = RetryPolicy(
            max_attempts=5, base_delay_ms=100.0, multiplier=1.0,
            max_delay_ms=100.0,
        )
        calls = 0

        def always_fails():
            nonlocal calls
            calls += 1
            raise ContentUnavailableError("down")

        before_ms = ctx.clock.now_ms
        with pytest.raises(ContentUnavailableError):
            policy.call(ctx, always_fails, budget_ms=50.0)
        # One attempt, no backoff charged: the 100ms sleep would blow
        # the 50ms budget, so the policy fails fast instead.
        assert calls == 1
        assert ctx.clock.now_ms == before_ms

    def test_retry_budget_callable_is_reevaluated(self):
        ctx = SimContext()
        clock = ctx.clock
        policy = RetryPolicy(
            max_attempts=4, base_delay_ms=40.0, multiplier=1.0,
            max_delay_ms=40.0,
        )
        budget = DeadlineBudget(clock, 100.0)
        calls = 0

        def always_fails():
            nonlocal calls
            calls += 1
            raise ContentUnavailableError("down")

        with pytest.raises(ContentUnavailableError):
            policy.call(
                ctx, always_fails, budget_ms=lambda: budget.remaining_ms
            )
        # 100ms allows two 40ms backoffs (3 attempts); the third
        # backoff would need 40 > 20 remaining, so it stops there.
        assert calls == 3
        assert clock.now_ms == 80.0
