"""Placement of applications, caches, Placeless servers and repositories.

Section 4 of the paper reports experiments with caches "co-located with
the Placeless server and on the machine where applications are run".  The
topology module captures that choice: given a cache placement it yields
the ordered list of hops a request crosses on the hit path and on the
miss/no-cache path, which the latency model turns into milliseconds.
A cluster's :class:`ClusterTopology` names its shards and the one hop
every cross-shard transfer crosses; hop costs live only in
:class:`~repro.sim.latency.LatencyModel`'s fixed tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import WorkloadError

__all__ = [
    "NodeKind",
    "Node",
    "CachePlacement",
    "Topology",
    "ClusterTopology",
]


class NodeKind(enum.Enum):
    """Role of a machine in the simulated testbed."""

    APPLICATION = "application"
    REFERENCE_SERVER = "reference-server"
    BASE_SERVER = "base-server"
    REPOSITORY = "repository"


class CachePlacement(enum.Enum):
    """Where the content cache sits, per §4 of the paper."""

    #: Same machine (and address space) as the application; hits cost only
    #: the ``local`` hop.  This is the configuration Table 1 measures.
    APPLICATION_LEVEL = "application-level"
    #: Co-located with the Placeless reference server; hits still cross
    #: the application→reference hop.
    SERVER_COLOCATED = "server-colocated"


@dataclass
class Node:
    """One machine in the testbed."""

    name: str
    kind: NodeKind


_APPLICATION_NOTIFIER_PATH = ("reference-to-base", "app-to-reference")
_COLOCATED_NOTIFIER_PATH = ("reference-to-base",)


@dataclass
class Topology:
    """The testbed shape: which hops each access path crosses.

    The default mirrors the paper's prototype: the application machine, a
    Placeless reference server (per-user document space), a Placeless base
    server, and content repositories behind the base server.
    """

    placement: CachePlacement = CachePlacement.APPLICATION_LEVEL
    nodes: list[Node] = field(default_factory=lambda: [
        Node("workstation", NodeKind.APPLICATION),
        Node("placeless-ref", NodeKind.REFERENCE_SERVER),
        Node("placeless-base", NodeKind.BASE_SERVER),
    ])

    def hit_path(self) -> list[str]:
        """Hops crossed when the cache hits (cache → application)."""
        if self.placement is CachePlacement.APPLICATION_LEVEL:
            return ["local"]
        return ["app-to-reference"]

    def fetch_path(self) -> list[str]:
        """Hops crossed on a full fetch, excluding repository service time.

        The request crosses application→reference and reference→base once
        in each direction; the repository hop is crossed by the base
        server.  We charge each hop once with the response size, matching
        how the dominant (response-carrying) direction scales.
        """
        return [
            "app-to-reference",
            "reference-to-base",
            "base-to-repository",
        ]

    def notifier_path(self) -> tuple[str, ...]:
        """Hops a notifier invalidation crosses to reach the cache."""
        if self.placement is CachePlacement.APPLICATION_LEVEL:
            return _APPLICATION_NOTIFIER_PATH
        return _COLOCATED_NOTIFIER_PATH


@dataclass
class ClusterTopology:
    """Per-shard peer links of a multi-cache cluster.

    The paper's notifier model (AFS-style callbacks) was designed for
    *many* caches; the cluster layer runs N shards and moves memo
    records and content bytes between them.  This class names the
    shards and resolves the hop a ``src → dst`` transfer crosses, so
    cross-shard traffic is charged on the virtual clock like any other
    network crossing.  Every pair of shards crosses the same
    ``default_link`` hop of the latency model: ``shard-to-shard`` from
    :data:`~repro.sim.latency.DEFAULT_HOPS` unless the deployment names
    another.
    """

    shards: list[str] = field(default_factory=list)
    #: Hop name every cross-shard transfer crosses.
    default_link: str = "shard-to-shard"

    def add_shard(self, name: str) -> None:
        """Register one shard; rejects duplicates."""
        if name in self.shards:
            raise WorkloadError(f"duplicate shard name: {name!r}")
        self.shards.append(name)

    def remove_shard(self, name: str) -> None:
        """Forget one shard."""
        try:
            self.shards.remove(name)
        except ValueError:
            raise WorkloadError(f"unknown shard: {name!r}") from None

    def link_path(self, src: str, dst: str) -> list[str]:
        """Hops one ``src → dst`` transfer crosses ([] when local)."""
        if src == dst:
            return []
        return [self.default_link]
