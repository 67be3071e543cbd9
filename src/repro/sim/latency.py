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
plus a per-byte cost, with optional deterministic jitter drawn from a
seeded RNG so repeated runs are identical.

The default constants were calibrated so that the three Table-1 documents
land in the same relative bands the paper reports (tens of ms uncached for
web documents, ~1 ms for a local cache hit, small miss overhead).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import RepositoryOfflineError, WorkloadError

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
    rate.  ``offline`` lets failure-injection tests simulate unreachable
    repositories.
    """

    connect_ms: float
    per_kb_ms: float = 0.0
    offline: bool = False

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
    """Maps hops and repository fetches to virtual-milliseconds costs.

    Parameters
    ----------
    hops, repositories:
        Override tables; unknown names raise :class:`WorkloadError` at use
        so configuration mistakes surface immediately.
    jitter_fraction:
        If non-zero, each cost is multiplied by a factor drawn uniformly
        from ``[1 - j, 1 + j]`` using a seeded RNG — deterministic across
        runs but avoids perfectly identical repeated measurements.
    seed:
        Seed for the jitter RNG.
    """

    def __init__(
        self,
        hops: dict[str, HopCost] | None = None,
        repositories: dict[str, RepositoryCost] | None = None,
        jitter_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= jitter_fraction < 1.0:
            raise WorkloadError(
                f"jitter_fraction must be in [0, 1): {jitter_fraction}"
            )
        self.hops = dict(DEFAULT_HOPS if hops is None else hops)
        self.repositories = dict(
            DEFAULT_REPOSITORIES if repositories is None else repositories
        )
        self._jitter_fraction = jitter_fraction
        self._rng = random.Random(seed)

    def _jitter(self, cost_ms: float) -> float:
        if self._jitter_fraction == 0.0:
            return cost_ms
        low = 1.0 - self._jitter_fraction
        high = 1.0 + self._jitter_fraction
        return cost_ms * self._rng.uniform(low, high)

    def hop_cost_ms(self, hop: str, size_bytes: int = 0) -> float:
        """Latency of moving *size_bytes* across the named hop."""
        try:
            cost = self.hops[hop]
        except KeyError:
            raise WorkloadError(f"unknown hop: {hop!r}") from None
        cost_ms = cost.fixed_ms + cost.per_kb_ms * (size_bytes / 1024.0)
        return self._jitter(cost_ms) if self._jitter_fraction else cost_ms

    def repository_cost_ms(self, repository: str, size_bytes: int) -> float:
        """Service latency of fetching *size_bytes* from the repository."""
        try:
            table_entry = self.repositories[repository]
        except KeyError:
            raise WorkloadError(f"unknown repository: {repository!r}") from None
        if table_entry.offline:
            raise RepositoryOfflineError(
                f"repository {repository!r} is offline"
            )
        return self._jitter(table_entry.cost_ms(size_bytes))

    def set_repository_offline(self, repository: str, offline: bool = True) -> None:
        """Toggle a repository's reachability (failure injection)."""
        try:
            current = self.repositories[repository]
        except KeyError:
            raise WorkloadError(f"unknown repository: {repository!r}") from None
        self.repositories[repository] = RepositoryCost(
            connect_ms=current.connect_ms,
            per_kb_ms=current.per_kb_ms,
            offline=offline,
        )
