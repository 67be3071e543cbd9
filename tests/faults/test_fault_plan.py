"""FaultPlan: deterministic schedules, seam checks, the default hook."""

from __future__ import annotations

import pytest

from repro.errors import (
    ContentUnavailableError,
    RepositoryOfflineError,
    VerifierError,
    WorkloadError,
)
from repro.faults.plan import FaultPlan, FaultRecord, OutageWindow
from repro.sim.clock import VirtualClock
from repro.sim.context import (
    SimContext,
    clear_default_fault_scenario,
    set_default_fault_scenario,
)


class TestOutageWindow:
    def test_half_open_interval(self):
        window = OutageWindow(100.0, 200.0)
        assert not window.covers(99.9, "repo")
        assert window.covers(100.0, "repo")
        assert window.covers(199.9, "repo")
        assert not window.covers(200.0, "repo")

    def test_target_filter(self):
        window = OutageWindow(0.0, 100.0, target="filer")
        assert window.covers(50.0, "filer")
        assert not window.covers(50.0, "web")

    def test_none_target_matches_everything(self):
        window = OutageWindow(0.0, 100.0)
        assert window.covers(50.0, "anything")

    def test_backwards_window_rejected(self):
        with pytest.raises(WorkloadError):
            OutageWindow(100.0, 50.0)


class TestValidation:
    @pytest.mark.parametrize("field", [
        "fetch_failure_probability",
        "notifier_loss_probability",
        "notifier_delay_probability",
        "verifier_failure_probability",
    ])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probabilities_bounded(self, field, bad):
        with pytest.raises(WorkloadError):
            FaultPlan(VirtualClock(), **{field: bad})

    def test_negative_delay_rejected(self):
        with pytest.raises(WorkloadError):
            FaultPlan(VirtualClock(), notifier_delay_ms=-1.0)

    def test_negative_timeout_budget_rejected(self):
        with pytest.raises(WorkloadError):
            FaultPlan(VirtualClock(), verifier_timeout_budget_ms=-5.0)


class TestFetchSeam:
    def test_outage_window_raises_offline(self):
        clock = VirtualClock()
        plan = FaultPlan(clock, outages=(OutageWindow(0.0, 100.0),))
        with pytest.raises(RepositoryOfflineError):
            plan.check_fetch("filer")
        assert plan.stats.fetch_offline == 1

    def test_outside_window_passes(self):
        clock = VirtualClock()
        plan = FaultPlan(clock, outages=(OutageWindow(50.0, 100.0),))
        plan.check_fetch("filer")  # t=0: before the window
        clock.advance(150.0)
        plan.check_fetch("filer")  # t=150: after the window
        assert plan.stats.total == 0

    def test_probability_one_always_fails(self):
        plan = FaultPlan(VirtualClock(), fetch_failure_probability=1.0)
        for _ in range(5):
            with pytest.raises(ContentUnavailableError):
                plan.check_fetch("web")
        assert plan.stats.fetch_unavailable == 5

    def test_probability_zero_never_fails(self):
        plan = FaultPlan(VirtualClock(), fetch_failure_probability=0.0)
        for _ in range(100):
            plan.check_fetch("web")
        assert plan.stats.total == 0

    def test_store_rejected_inside_window(self):
        plan = FaultPlan(
            VirtualClock(), outages=(OutageWindow(0.0, 100.0, target="filer"),)
        )
        with pytest.raises(RepositoryOfflineError):
            plan.check_store("filer")
        plan.check_store("web")  # different repository: unaffected
        assert plan.stats.store_offline == 1


class TestBusSeam:
    def test_loss_probability_one_drops(self):
        plan = FaultPlan(VirtualClock(), notifier_loss_probability=1.0)
        action, delay = plan.notifier_disposition("cache-1")
        assert (action, delay) == ("drop", 0.0)
        assert plan.stats.notifications_lost == 1

    def test_delay_probability_one_delays(self):
        plan = FaultPlan(
            VirtualClock(),
            notifier_delay_probability=1.0,
            notifier_delay_ms=250.0,
        )
        action, delay = plan.notifier_disposition("cache-1")
        assert (action, delay) == ("delay", 250.0)
        assert plan.stats.notifications_delayed == 1

    def test_healthy_plan_delivers(self):
        plan = FaultPlan(VirtualClock())
        assert plan.notifier_disposition("cache-1") == ("deliver", 0.0)
        assert plan.stats.total == 0


class TestVerifierSeam:
    def test_timeout_budget_enforced(self):
        plan = FaultPlan(VirtualClock(), verifier_timeout_budget_ms=1.0)
        plan.check_verifier(0.5, label="cheap")
        with pytest.raises(VerifierError):
            plan.check_verifier(5.0, label="expensive")
        assert plan.stats.verifier_timeouts == 1

    def test_failure_probability(self):
        plan = FaultPlan(VirtualClock(), verifier_failure_probability=1.0)
        with pytest.raises(VerifierError):
            plan.check_verifier(0.1)
        assert plan.stats.verifier_failures == 1


class TestLinkSeam:
    def test_link_down_inside_window(self):
        clock = VirtualClock()
        plan = FaultPlan(
            clock,
            link_outages=(OutageWindow(0.0, 100.0, target="app->server"),),
        )
        assert plan.link_down("app->server")
        assert not plan.link_down("server->repo")
        clock.advance(100.0)
        assert not plan.link_down("app->server")
        assert plan.stats.link_outages == 1


class TestDeterminism:
    def _drive(self, plan: FaultPlan) -> None:
        """One fixed decision sequence across every seam."""
        for i in range(50):
            plan.clock.advance(10.0)
            try:
                plan.check_fetch("filer")
            except Exception:
                pass
            plan.notifier_disposition(f"cache-{i % 3}")
            try:
                plan.check_verifier(0.2, label="ttl")
            except Exception:
                pass

    def _plan(self, seed: int) -> FaultPlan:
        return FaultPlan(
            VirtualClock(),
            seed=seed,
            fetch_failure_probability=0.3,
            notifier_loss_probability=0.2,
            notifier_delay_probability=0.2,
            notifier_delay_ms=100.0,
            verifier_failure_probability=0.1,
        )

    def test_same_seed_identical_trace(self):
        first, second = self._plan(42), self._plan(42)
        self._drive(first)
        self._drive(second)
        assert first.injection_trace() == second.injection_trace()
        assert vars(first.stats) == vars(second.stats)
        assert first.injection_trace()  # the trace is non-trivial

    def test_different_seed_different_trace(self):
        first, second = self._plan(1), self._plan(2)
        self._drive(first)
        self._drive(second)
        assert first.injection_trace() != second.injection_trace()

    def test_streams_are_independent_per_seam(self):
        # Draining the fetch stream must not perturb the bus stream.
        noisy, quiet = self._plan(7), self._plan(7)
        for _ in range(100):
            try:
                noisy.check_fetch("filer")
            except Exception:
                pass
        noisy_bus = [noisy.notifier_disposition("c") for _ in range(20)]
        quiet_bus = [quiet.notifier_disposition("c") for _ in range(20)]
        assert noisy_bus == quiet_bus

    def test_trace_records_carry_clock_time(self):
        clock = VirtualClock()
        plan = FaultPlan(clock, outages=(OutageWindow(0.0, 1e9),))
        clock.advance(123.5)
        with pytest.raises(RepositoryOfflineError):
            plan.check_fetch("filer")
        assert plan.injection_trace() == (
            FaultRecord(
                at_ms=123.5, site="provider", action="offline-window",
                target="filer",
            ),
        )


class TestDefaultScenarioHook:
    def test_new_contexts_pick_up_the_default(self):
        try:
            set_default_fault_scenario(
                lambda clock: FaultPlan(clock, fetch_failure_probability=1.0)
            )
            ctx = SimContext()
            assert ctx.faults is not None
            assert ctx.faults.clock is ctx.clock
            assert ctx.faults.fetch_failure_probability == 1.0
        finally:
            clear_default_fault_scenario()
        assert SimContext().faults is None

    def test_explicit_plan_not_overridden(self):
        try:
            set_default_fault_scenario(lambda clock: FaultPlan(clock))
            clock = VirtualClock()
            mine = FaultPlan(clock, seed=99)
            ctx = SimContext(clock=clock, faults=mine)
            assert ctx.faults is mine
        finally:
            clear_default_fault_scenario()
