"""Placement of applications, caches, Placeless servers and repositories.

Section 4 of the paper reports experiments with caches "co-located with
the Placeless server and on the machine where applications are run".  The
topology module captures that choice: given a cache placement it yields
the ordered list of hops a request crosses on the hit path and on the
miss/no-cache path, which the latency model turns into milliseconds.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, field

from repro.errors import WorkloadError

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.latency import HopCost, LatencyModel

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
    shards, resolves the hop a ``src → dst`` transfer crosses, and —
    because :class:`~repro.sim.latency.LatencyModel` refuses unknown
    hop names — registers every per-pair override into the model so
    cross-shard traffic is charged on the virtual clock like any other
    network crossing.

    Links are symmetric by default: an override registered for
    ``(a, b)`` also answers ``(b, a)``.  Pairs without an override use
    the shared ``shard-to-shard`` hop from
    :data:`~repro.sim.latency.DEFAULT_HOPS`.
    """

    shards: list[str] = field(default_factory=list)
    #: Per-pair link cost overrides, keyed ``(src, dst)``.
    overrides: dict[tuple[str, str], "HopCost"] = field(
        default_factory=dict
    )
    #: Hop name used for pairs without an override.
    default_link: str = "shard-to-shard"

    def add_shard(self, name: str) -> None:
        """Register one shard; rejects duplicates."""
        if name in self.shards:
            raise WorkloadError(f"duplicate shard name: {name!r}")
        self.shards.append(name)

    def remove_shard(self, name: str) -> None:
        """Forget one shard (its overrides stay registered; harmless)."""
        try:
            self.shards.remove(name)
        except ValueError:
            raise WorkloadError(f"unknown shard: {name!r}") from None

    @staticmethod
    def link_name(src: str, dst: str) -> str:
        """The latency-model hop name of one override direction."""
        return f"shard-link:{src}->{dst}"

    def set_link(self, src: str, dst: str, cost: "HopCost") -> None:
        """Override the ``src ↔ dst`` link cost (symmetric)."""
        for shard in (src, dst):
            if shard not in self.shards:
                raise WorkloadError(f"unknown shard: {shard!r}")
        self.overrides[(src, dst)] = cost

    def link_path(self, src: str, dst: str) -> list[str]:
        """Hops one ``src → dst`` transfer crosses ([] when local)."""
        if src == dst:
            return []
        for pair in ((src, dst), (dst, src)):
            if pair in self.overrides:
                return [self.link_name(*pair)]
        return [self.default_link]

    def install(self, latency: "LatencyModel") -> None:
        """Register every override hop into *latency*'s hop table.

        Idempotent; must run before the first cross-shard charge, or
        the model raises ``WorkloadError`` for the unknown hop name.
        """
        for (src, dst), cost in self.overrides.items():
            latency.hops[self.link_name(src, dst)] = cost
