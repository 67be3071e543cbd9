"""sim/topology primitives: access paths and cluster shard links."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.sim.latency import DEFAULT_HOPS, LatencyModel
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

    def test_custom_default_link(self):
        topology = ClusterTopology(
            shards=["a", "b"], default_link="local"
        )
        assert topology.link_path("a", "b") == ["local"]
