"""Tests for the latency model and topology paths."""

from __future__ import annotations

import pytest

from repro.errors import RepositoryOfflineError, WorkloadError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext
from repro.sim.latency import HopCost, LatencyModel, LatencySample, RepositoryCost
from repro.sim.topology import CachePlacement, Topology


class TestHopCost:
    def test_fixed_only(self):
        assert HopCost(fixed_ms=2.0).cost_ms(10_000) == 2.0

    def test_per_kb_scales(self):
        hop = HopCost(fixed_ms=1.0, per_kb_ms=2.0)
        assert hop.cost_ms(2048) == pytest.approx(5.0)


class TestRepositoryCost:
    def test_affine_cost(self):
        repo = RepositoryCost(connect_ms=10.0, per_kb_ms=1.0)
        assert repo.cost_ms(1024) == pytest.approx(11.0)


class TestLatencyModel:
    def test_default_tables_exist(self):
        model = LatencyModel()
        assert model.hop_cost_ms("local") > 0
        assert model.repository_cost_ms("www", 1024) > 0

    def test_unknown_hop_raises(self):
        with pytest.raises(WorkloadError):
            LatencyModel().hop_cost_ms("nonexistent")

    def test_unknown_repository_raises(self):
        with pytest.raises(WorkloadError):
            LatencyModel().repository_cost_ms("nonexistent", 10)

    def test_www_slower_than_parcweb(self):
        model = LatencyModel()
        assert model.repository_cost_ms("www", 1000) > model.repository_cost_ms(
            "parcweb", 1000
        )

    def test_no_jitter_is_deterministic(self):
        model = LatencyModel()
        first = model.repository_cost_ms("www", 5000)
        second = model.repository_cost_ms("www", 5000)
        assert first == second

    def test_invalid_jitter_raises(self):
        # The model has no jitter (nor any other setting) to take.
        with pytest.raises(TypeError):
            LatencyModel(jitter_fraction=0.1)

    def test_offline_repository_raises(self):
        # An outage is the fault plan's to schedule; the model only
        # prices the repository, before, during and after the window.
        ctx = SimContext()
        ctx.faults = FaultPlan(
            ctx.clock, outages=(OutageWindow(0.0, 10.0, "www"),)
        )
        provider = MemoryProvider(ctx, b"page")
        provider.repository_name = "www"
        assert not hasattr(ctx.latency, "set_repository_offline")
        with pytest.raises(RepositoryOfflineError):
            provider.fetch()
        assert ctx.latency.repository_cost_ms("www", 10) > 0
        ctx.clock.advance(10.0)
        assert provider.fetch().content == b"page"


class TestLatencySample:
    def test_total_sums_parts(self):
        sample = LatencySample("read")
        sample.add("hop", 1.5)
        sample.add("repo", 2.5)
        assert sample.total_ms == pytest.approx(4.0)

    def test_empty_total_is_zero(self):
        assert LatencySample("x").total_ms == 0.0


class TestTopology:
    def test_application_level_hit_is_local(self):
        topology = Topology(placement=CachePlacement.APPLICATION_LEVEL)
        assert topology.hit_path() == ["local"]

    def test_server_colocated_hit_crosses_network(self):
        topology = Topology(placement=CachePlacement.SERVER_COLOCATED)
        assert topology.hit_path() == ["app-to-reference"]

    def test_fetch_path_has_three_hops(self):
        assert len(Topology().fetch_path()) == 3

    def test_notifier_path_shorter_for_colocated(self):
        app = Topology(placement=CachePlacement.APPLICATION_LEVEL)
        colocated = Topology(placement=CachePlacement.SERVER_COLOCATED)
        assert len(colocated.notifier_path()) < len(app.notifier_path())
