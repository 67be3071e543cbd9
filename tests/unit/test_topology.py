"""sim/topology primitives: access paths and cluster shard links."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.sim.context import SimContext
from repro.sim.latency import DEFAULT_HOPS, HopCost, LatencyModel
from repro.sim.topology import CachePlacement, ClusterTopology, Topology


class TestTopologyPaths:
    def test_application_level_paths(self):
        topology = Topology(placement=CachePlacement.APPLICATION_LEVEL)
        assert topology.hit_path() == ["local"]
        assert topology.fetch_path() == [
            "app-to-reference",
            "reference-to-base",
            "base-to-repository",
        ]
        assert topology.notifier_path() == (
            "reference-to-base",
            "app-to-reference",
        )

    def test_server_colocated_paths(self):
        topology = Topology(placement=CachePlacement.SERVER_COLOCATED)
        assert topology.hit_path() == ["app-to-reference"]
        assert topology.notifier_path() == ("reference-to-base",)
        # The miss path is placement-independent.
        assert topology.fetch_path() == (
            Topology(
                placement=CachePlacement.APPLICATION_LEVEL
            ).fetch_path()
        )

    def test_notifier_path_is_shared_and_follows_the_placement(self):
        # Table 1 moves the cache between runs on one topology.
        topology = Topology()
        assert topology.notifier_path() is Topology().notifier_path()
        topology.placement = CachePlacement.SERVER_COLOCATED
        assert topology.notifier_path() == ("reference-to-base",)

    def test_every_named_hop_is_priced(self):
        latency = LatencyModel()
        topology = Topology()
        for hop in (
            topology.hit_path()
            + topology.fetch_path()
            + list(topology.notifier_path())
        ):
            assert latency.hop_cost_ms(hop, 1024) > 0.0

    def test_shard_link_hop_is_priced_by_default(self):
        assert "shard-to-shard" in DEFAULT_HOPS
        assert LatencyModel().hop_cost_ms("shard-to-shard", 1024) > 0.0


class TestClusterTopology:
    def test_add_and_remove_shards(self):
        topology = ClusterTopology(shards=["a"])
        topology.add_shard("b")
        assert topology.shards == ["a", "b"]
        with pytest.raises(WorkloadError):
            topology.add_shard("a")
        topology.remove_shard("b")
        assert topology.shards == ["a"]
        with pytest.raises(WorkloadError):
            topology.remove_shard("b")

    def test_link_path_default_and_local(self):
        topology = ClusterTopology(shards=["a", "b"])
        assert topology.link_path("a", "a") == []
        assert topology.link_path("a", "b") == ["shard-to-shard"]

    def test_set_link_is_symmetric_and_validated(self):
        topology = ClusterTopology(shards=["a", "b", "c"])
        cost = HopCost(fixed_ms=5.0, per_kb_ms=1.0)
        topology.set_link("a", "b", cost)
        link = ClusterTopology.link_name("a", "b")
        assert topology.link_path("a", "b") == [link]
        assert topology.link_path("b", "a") == [link]
        # Unrelated pairs still use the default hop.
        assert topology.link_path("a", "c") == ["shard-to-shard"]
        with pytest.raises(WorkloadError):
            topology.set_link("a", "nope", cost)

    def test_install_registers_override_hops(self):
        topology = ClusterTopology(shards=["a", "b"])
        topology.set_link("a", "b", HopCost(fixed_ms=5.0, per_kb_ms=0.0))
        ctx = SimContext()
        link = ClusterTopology.link_name("a", "b")
        with pytest.raises(WorkloadError):
            ctx.latency.hop_cost_ms(link, 0)
        topology.install(ctx.latency)
        before = ctx.clock.now_ms
        ctx.charge_hop(link, 0)
        assert ctx.clock.now_ms == pytest.approx(before + 5.0)

    def test_custom_default_link(self):
        topology = ClusterTopology(
            shards=["a", "b"], default_link="local"
        )
        assert topology.link_path("a", "b") == ["local"]
