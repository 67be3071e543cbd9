"""Tests for the partition / cache-crash fault plumbing and its CLI.

The bus-partition windows and scheduled cache-crash instants ride the
existing :class:`~repro.faults.plan.FaultPlan`; the named scenarios ride
the existing ``--faults`` CLI flag.  These tests pin the seam contracts:
window checks draw no RNG (so golden fault traces stay byte-identical),
drops are counted separately from probabilistic losses, and the CLI
accepts exactly the documented scenario names.
"""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser
from repro.errors import WorkloadError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.scenarios import (
    NAMED_CHAOS_SCENARIOS,
    cache_crash_scenario,
    crash_chaos_scenario,
    diskchaos_chaos_scenario,
    grayshard_chaos_scenario,
    misbehave_chaos_scenario,
    partition_chaos_scenario,
    partition_scenario,
    standard_chaos_scenario,
)
from repro.sim.clock import VirtualClock


class TestPartitionWindows:
    def test_bus_partitioned_is_a_pure_window_check(self):
        clock = VirtualClock()
        plan = FaultPlan(
            clock, bus_outages=(OutageWindow(100.0, 200.0),)
        )
        assert not plan.bus_partitioned("cache-1")
        clock.advance(150.0)
        assert plan.bus_partitioned("cache-1")
        # No RNG draw, no trace record, no stats movement.
        assert plan.injection_trace() == ()
        assert plan.stats.total == 0
        clock.advance(100.0)
        assert not plan.bus_partitioned("cache-1")

    def test_targeted_window_only_covers_its_cache(self):
        clock = VirtualClock()
        plan = FaultPlan(
            clock,
            bus_outages=(OutageWindow(0.0, 100.0, "cache-a"),),
        )
        assert plan.bus_partitioned("cache-a")
        assert not plan.bus_partitioned("cache-b")

    def test_check_bus_delivery_counts_and_records_drops(self):
        clock = VirtualClock()
        plan = FaultPlan(clock, bus_outages=(OutageWindow(0.0, 100.0),))
        assert plan.check_bus_delivery("cache-1")
        assert plan.stats.notifications_partition_dropped == 1
        assert plan.stats.notifications_lost == 0
        record = plan.injection_trace()[-1]
        assert (record.site, record.action) == ("bus", "partition-drop")
        clock.advance(200.0)
        assert not plan.check_bus_delivery("cache-1")
        assert plan.stats.notifications_partition_dropped == 1

    def test_partition_drops_count_in_total(self):
        clock = VirtualClock()
        plan = FaultPlan(clock, bus_outages=(OutageWindow(0.0, 1.0),))
        plan.check_bus_delivery("x")
        assert plan.stats.total == 1


class TestCrashSchedule:
    def test_crash_instants_are_sorted_and_validated(self):
        clock = VirtualClock()
        plan = FaultPlan(clock, cache_crashes=(500.0, 100.0))
        assert plan.cache_crashes == (100.0, 500.0)
        with pytest.raises(WorkloadError):
            FaultPlan(clock, cache_crashes=(-1.0,))


class TestScenarioFactories:
    def test_partition_scenario_builds_one_window(self):
        clock = VirtualClock()
        plan = partition_scenario(clock, start_ms=10.0, duration_ms=5.0)
        assert plan.bus_outages == (OutageWindow(10.0, 15.0),)
        assert plan.cache_crashes == ()

    def test_cache_crash_scenario_builds_one_instant(self):
        clock = VirtualClock()
        plan = cache_crash_scenario(clock, at_ms=42.0)
        assert plan.cache_crashes == (42.0,)
        assert plan.bus_outages == ()

    def test_named_scenarios_cover_the_cli_choices(self, capsys):
        assert set(NAMED_CHAOS_SCENARIOS) == {
            "standard", "partition", "crash", "diskchaos", "grayshard",
        }
        assert NAMED_CHAOS_SCENARIOS["standard"] is standard_chaos_scenario
        assert NAMED_CHAOS_SCENARIOS["partition"] is partition_chaos_scenario
        assert NAMED_CHAOS_SCENARIOS["crash"] is crash_chaos_scenario
        # Misbehaving properties raise out of uncontained experiments, so
        # the CLI does not offer them; A14 builds its own plan.
        assert misbehave_chaos_scenario not in NAMED_CHAOS_SCENARIOS.values()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "a1", "--faults", "misbehave"])
        assert "invalid choice: 'misbehave'" in capsys.readouterr().err
        assert NAMED_CHAOS_SCENARIOS["diskchaos"] is diskchaos_chaos_scenario
        assert NAMED_CHAOS_SCENARIOS["grayshard"] is grayshard_chaos_scenario

    def test_chaos_variants_keep_the_standard_probabilities(self):
        clock = VirtualClock()
        standard = standard_chaos_scenario(clock)
        for factory in (
            partition_chaos_scenario,
            crash_chaos_scenario,
            misbehave_chaos_scenario,
            diskchaos_chaos_scenario,
            grayshard_chaos_scenario,
        ):
            variant = factory(VirtualClock())
            assert (
                variant.notifier_loss_probability
                == standard.notifier_loss_probability
            )
            assert (
                variant.verifier_failure_probability
                == standard.verifier_failure_probability
            )
        assert partition_chaos_scenario(VirtualClock()).bus_outages
        assert crash_chaos_scenario(VirtualClock()).cache_crashes


class TestCliParsing:
    def test_bare_faults_flag_means_standard(self):
        args = build_parser().parse_args(["bench", "a1", "--faults"])
        assert args.faults == "standard"

    def test_named_scenarios_parse(self):
        for name in NAMED_CHAOS_SCENARIOS:
            args = build_parser().parse_args(
                ["bench", "table1", "--faults", name]
            )
            assert args.faults == name

    def test_no_flag_means_no_scenario(self):
        args = build_parser().parse_args(["bench", "a1"])
        assert args.faults is None

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "a1", "--faults", "bogus"])

    def test_a13_and_alias_are_registered(self):
        from repro.__main__ import _EXPERIMENT_MODULES

        assert _EXPERIMENT_MODULES["a13"] == "repro.bench.recovery"
        assert _EXPERIMENT_MODULES["recovery"] == "repro.bench.recovery"
