"""Deterministic latency model for the simulated testbed.

Table 1 of the paper measures document access times through three paths:

* **no cache** — application → Placeless servers → repository and back;
* **cache miss** — the same, plus the cost of creating the minimum
  notifier set and returning one TTL verifier;
* **cache hit** — application → application-level cache only.

The latencies the paper saw are a function of (a) network hops between the
application, the Placeless reference/base servers and the repository and
(b) repository service time, both roughly affine in the transferred size.
We model exactly that: each hop and each repository has a fixed setup cost
plus a per-byte cost, and nothing else — no jitter, so repeated runs are
identical.  Failures are not the model's business: repository outages,
downed links and flaky fetches are scheduled by a
:class:`~repro.faults.plan.FaultPlan`.

The default constants were calibrated so that the three Table-1 documents
land in the same relative bands the paper reports (tens of ms uncached for
web documents, ~1 ms for a local cache hit, small miss overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError

__all__ = ["HopCost", "RepositoryCost", "LatencySample", "LatencyModel"]


@dataclass(frozen=True)
class HopCost:
    """Cost of crossing one network hop.

    ``fixed_ms`` models propagation + protocol overhead; ``per_kb_ms``
    models serialization at the hop's bandwidth.
    """

    fixed_ms: float
    per_kb_ms: float = 0.0

    def cost_ms(self, size_bytes: int) -> float:
        """Latency for moving *size_bytes* across this hop."""
        return self.fixed_ms + self.per_kb_ms * (size_bytes / 1024.0)


@dataclass(frozen=True)
class RepositoryCost:
    """Service time of a content repository.

    ``connect_ms`` is paid once per request (TCP + request parsing for a
    web server, RPC setup for NFS); ``per_kb_ms`` is the read/transmit
    rate.
    """

    connect_ms: float
    per_kb_ms: float = 0.0

    def cost_ms(self, size_bytes: int) -> float:
        """Service latency for producing *size_bytes* of content."""
        return self.connect_ms + self.per_kb_ms * (size_bytes / 1024.0)


@dataclass
class LatencySample:
    """Itemised latency of one operation, for reporting and assertions."""

    label: str
    parts: list[tuple[str, float]] = field(default_factory=list)

    def add(self, name: str, cost_ms: float) -> None:
        """Append one itemised component."""
        self.parts.append((name, cost_ms))

    @property
    def total_ms(self) -> float:
        """Sum of all components."""
        return sum(cost for _, cost in self.parts)


#: Default hop table for the paper's testbed shape.  The application talks
#: to the Placeless *reference* server, which talks to the *base* server,
#: which talks to the repository.  An application-level cache sits in the
#: same process as the application (``local`` hop).
DEFAULT_HOPS: dict[str, HopCost] = {
    "local": HopCost(fixed_ms=0.05, per_kb_ms=0.01),
    "app-to-reference": HopCost(fixed_ms=1.2, per_kb_ms=0.35),
    "reference-to-base": HopCost(fixed_ms=1.0, per_kb_ms=0.30),
    "base-to-repository": HopCost(fixed_ms=0.8, per_kb_ms=0.25),
    # Peer link between two cache shards in a cluster (same machine
    # room as the reference servers, cheaper than the WAN-ish hops but
    # never free): cross-shard memo imports and gossip are charged here.
    "shard-to-shard": HopCost(fixed_ms=0.4, per_kb_ms=0.12),
}

#: Default repository table.  ``parcweb`` is an intranet web server,
#: ``www`` an internet one, ``nfs`` a LAN filer; ``live`` streams and is
#: never cacheable, so its cost matters only for the uncached path.
DEFAULT_REPOSITORIES: dict[str, RepositoryCost] = {
    "parcweb": RepositoryCost(connect_ms=9.0, per_kb_ms=1.6),
    "www": RepositoryCost(connect_ms=55.0, per_kb_ms=6.5),
    "nfs": RepositoryCost(connect_ms=2.5, per_kb_ms=0.6),
    "dms": RepositoryCost(connect_ms=6.0, per_kb_ms=1.1),
    "live": RepositoryCost(connect_ms=12.0, per_kb_ms=2.0),
    "mail": RepositoryCost(connect_ms=4.0, per_kb_ms=0.9),
    "memory": RepositoryCost(connect_ms=0.02, per_kb_ms=0.005),
}


class LatencyModel:
    """Maps hops and repository fetches to virtual-milliseconds costs,
    from :data:`DEFAULT_HOPS` and :data:`DEFAULT_REPOSITORIES`; unknown
    names raise :class:`WorkloadError` at use so configuration mistakes
    surface immediately."""

    def __init__(self) -> None:
        self.hops = dict(DEFAULT_HOPS)
        self.repositories = dict(DEFAULT_REPOSITORIES)

    def hop_cost_ms(self, hop: str, size_bytes: int = 0) -> float:
        """Latency of moving *size_bytes* across the named hop."""
        try:
            cost = self.hops[hop]
        except KeyError:
            raise WorkloadError(f"unknown hop: {hop!r}") from None
        return cost.fixed_ms + cost.per_kb_ms * (size_bytes / 1024.0)

    def repository_cost_ms(self, repository: str, size_bytes: int) -> float:
        """Service latency of fetching *size_bytes* from the repository."""
        try:
            table_entry = self.repositories[repository]
        except KeyError:
            raise WorkloadError(f"unknown repository: {repository!r}") from None
        return table_entry.cost_ms(size_bytes)
